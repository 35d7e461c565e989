#!/usr/bin/env bash
# Correctness gate: builds the tree under ASan+UBSan with warnings as
# errors and runs the full tier-1 ctest suite (which includes the
# sciera_lint static checks and the simnet determinism audit). This is
# what CI should run; it is slower than the plain build but catches
# memory-safety bugs, UB, and lint violations in one pass.
#
# Usage: tools/run_checks.sh [build-dir]        (default: build-checks)
#   SCIERA_SANITIZE=thread tools/run_checks.sh  to run the TSan flavor.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-checks}"
SANITIZE="${SCIERA_SANITIZE:-address;undefined}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

SUPP_DIR="$ROOT/tools/sanitizers"
export ASAN_OPTIONS="suppressions=$SUPP_DIR/asan.supp:detect_stack_use_after_return=1:strict_string_checks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="suppressions=$SUPP_DIR/ubsan.supp:print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"
export LSAN_OPTIONS="suppressions=$SUPP_DIR/lsan.supp:${LSAN_OPTIONS:-}"

# Static analysis runs before any build: the determinism/concurrency
# analyzer (sciera_analyze) must report zero unsuppressed findings over
# src/, warnings included. A tiny host-compiler build of the two lint
# tools is enough — they have no dependency on the sciera library.
echo "== sciera_analyze (determinism & concurrency static analysis) =="
ANALYZE_DIR="$BUILD_DIR-analyze"
mkdir -p "$ANALYZE_DIR"
c++ -std=c++20 -O1 -o "$ANALYZE_DIR/sciera_analyze" \
  "$ROOT/tools/sciera_analyze.cc"
"$ANALYZE_DIR/sciera_analyze" --werror --json "$ROOT" src \
  > "$ANALYZE_DIR/ANALYZE_findings.json" \
  || { cat "$ANALYZE_DIR/ANALYZE_findings.json"; exit 1; }

echo "== configure (sanitize: $SANITIZE, -Werror on) =="
cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSCIERA_SANITIZE="$SANITIZE" \
  -DSCIERA_WERROR=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

# The suite includes the exact core gates: scheduler digest parity
# (SchedulerEquivalence.*), thread parity (ThreadParity.*), and the
# router fast-path window (RouterFastPath.*: zero allocations and zero key
# schedules over the batched parse/verify/forward pipeline, which is
# exactly where a scratch-reuse bug such as a stale span or aliased
# buffer would surface under ASan).
echo "== ctest (tier-1 suite under sanitizers, incl. lint + determinism) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Batched vs scalar A/B at the soak level: the full KREONET ring-cut
# report must be byte-identical whichever router fast path is in play.
echo "== sciera_chaos batched vs scalar router report parity =="
"$BUILD_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 --duration-ms 2000 \
  --out "$BUILD_DIR/CHAOS_router_batched.json"
"$BUILD_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 --duration-ms 2000 \
  --scalar-router --out "$BUILD_DIR/CHAOS_router_scalar.json"
cmp "$BUILD_DIR/CHAOS_router_batched.json" "$BUILD_DIR/CHAOS_router_scalar.json"

# A short chaos soak under sanitizers: fault injection, the daemons'
# retry/degradation machinery, and the survivability reporting all get a
# memory-safety pass beyond what the smoke ctest already proved.
echo "== sciera_chaos kreonet-ring-cut --quick soak (sanitized) =="
"$BUILD_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 --duration-ms 3000 \
  --out "$BUILD_DIR/CHAOS_soak_quick.json"

# The same soak with the self-healing control plane on: timer-driven
# re-beaconing, segment expiry/revocation, replica failover, and the
# reconvergence measurement all run under ASan+UBSan.
echo "== sciera_chaos kreonet-ring-cut --self-healing reconvergence soak (sanitized) =="
"$BUILD_DIR/tools/sciera_chaos" kreonet-ring-cut --self-healing --seed 7 \
  --duration-ms 3000 --out "$BUILD_DIR/CHAOS_reconverge_quick.json"

# The adversarial-robustness soak under sanitizers: forged/spoofed MAC
# floods plus a flash crowd stress the in-path LightningFilters, router
# admission classes, and SCMP suppression — and the defended arm must
# strictly beat the --no-defenses arm on legitimate-traffic delivery
# (the smoke ctest gates the ordering; here both arms get the
# memory-safety pass).
echo "== sciera_chaos forged-flood attack soak, defenses A/B (sanitized) =="
"$BUILD_DIR/tools/sciera_chaos" forged-flood --self-healing --seed 7 \
  --duration-ms 3000 --out "$BUILD_DIR/CHAOS_attack_on.json"
"$BUILD_DIR/tools/sciera_chaos" forged-flood --self-healing --seed 7 \
  --duration-ms 3000 --no-defenses --out "$BUILD_DIR/CHAOS_attack_off.json"

# TSan flavor of the concurrency surfaces. When this script is already
# running the thread flavor (SCIERA_SANITIZE=thread), the full suite above
# covered it; otherwise build just the chaos CLI in a separate TSan tree
# and run the soak smoke plus the multithreaded observability smoke, so
# the sciera::Mutex discipline the thread-safety annotations promise is
# checked dynamically on every gate run.
if [[ "$SANITIZE" != *thread* ]]; then
  TSAN_DIR="$BUILD_DIR-tsan"
  echo "== TSan flavor: sciera_chaos soak + thread smoke =="
  cmake -B "$TSAN_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCIERA_SANITIZE=thread \
    -DSCIERA_WERROR=ON
  cmake --build "$TSAN_DIR" -j "$JOBS" --target sciera_chaos_cli
  "$TSAN_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 \
    --duration-ms 2000 --out "$TSAN_DIR/CHAOS_soak_tsan.json"
  "$TSAN_DIR/tools/sciera_chaos" --thread-smoke
  # Attack soak under TSan: the flood generator's atomic delivery
  # counters and the shared filter/admission counters run with real
  # concurrency when sharded.
  echo "== TSan flavor: forged-flood attack soak =="
  "$TSAN_DIR/tools/sciera_chaos" forged-flood --self-healing --seed 7 \
    --duration-ms 3000 --out "$TSAN_DIR/CHAOS_attack_tsan.json"
  # The parallel soak under TSan: 8 shards on 4 worker threads exercises
  # the window barrier, cross-shard outboxes, per-direction link RNGs, and
  # the atomic workload counters with real concurrency — and the report
  # must stay byte-identical to the 1-thread run of the same config.
  echo "== TSan flavor: sharded parallel soak (8 shards x 4 threads) =="
  "$TSAN_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 \
    --duration-ms 2000 --shards 8 --threads 4 \
    --out "$TSAN_DIR/CHAOS_soak_parallel_tsan.json"
  "$TSAN_DIR/tools/sciera_chaos" kreonet-ring-cut --seed 7 \
    --duration-ms 2000 --shards 8 --threads 1 \
    --out "$TSAN_DIR/CHAOS_soak_parallel_1t.json"
  cmp "$TSAN_DIR/CHAOS_soak_parallel_tsan.json" \
    "$TSAN_DIR/CHAOS_soak_parallel_1t.json"
fi

echo "== run_checks: all clean =="
