#!/usr/bin/env bash
# Correctness gate: builds the tree under ASan+UBSan with warnings as
# errors and runs the full tier-1 ctest suite (which includes the
# sciera_analyze static checks, the chaos soaks and the paper-result
# gates), then the TSan flavor of the one multi-threaded test, then a
# plain Release build with warnings as errors, and last the benchmark's
# smoke run and a check of its output contract. Every test stage between
# the static analysis and the benchmark is a ctest selection, so the
# suite, not this script, holds the commands. This is what CI should
# run; it is slower than the plain build but catches memory-safety bugs,
# UB, data races, lint violations, -O3-only warnings, benchmark gate
# failures and benchmark output that lacks a declared metric in one pass.
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

# Static analysis runs before any build: sciera_analyze must report zero
# unsuppressed findings over src/, tests/, bench/ and examples/, warnings
# included.
# A host-compiler build of the analyzer is enough — it has no dependency
# on the sciera library.
echo "== sciera_analyze (static analysis) =="
ANALYZE_DIR="$BUILD_DIR-analyze"
mkdir -p "$ANALYZE_DIR"
c++ -std=c++20 -O1 -o "$ANALYZE_DIR/sciera_analyze" \
  "$ROOT/tools/sciera_analyze.cc"
"$ANALYZE_DIR/sciera_analyze" --werror --json "$ROOT" src tests bench examples \
  > "$ANALYZE_DIR/ANALYZE_findings.json" \
  || { cat "$ANALYZE_DIR/ANALYZE_findings.json"; exit 1; }

echo "== configure (sanitize: $SANITIZE, -Werror on) =="
cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSCIERA_SANITIZE="$SANITIZE" \
  -DSCIERA_WERROR=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

# The suite includes the exact core gates: the event queue's ordering
# contract (SchedulerEquivalence.*), the pinned soak digests
# (Chaos.SoakDigestCorpus), the router fast-path window
# (RouterFastPath.*: zero allocations and zero key schedules over the
# batched parse/verify/forward pipeline, which is exactly where a
# scratch-reuse bug such as a stale span or aliased buffer would surface
# under ASan), the chaos soaks (batched vs scalar router parity, ring
# cut, self-healing reconvergence, the attack A/B) and the paper-result
# gates (paper.*).
echo "== ctest (tier-1 suite under sanitizers) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# TSan flavor of the concurrency surface. The simulation core is serial,
# so the only test that starts a thread is chaos.thread_smoke, which
# drives the mutex-guarded metrics registry from four threads; it alone
# carries the `threads` label. When this script is already running the
# thread flavor (SCIERA_SANITIZE=thread), the full suite above covered it;
# otherwise build just the chaos CLI in a separate TSan tree and run that
# label, so the registry's sciera::Mutex discipline is checked dynamically
# on every run.
if [[ "$SANITIZE" != *thread* ]]; then
  TSAN_DIR="$BUILD_DIR-tsan"
  echo "== TSan flavor: ctest -L threads =="
  cmake -B "$TSAN_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCIERA_SANITIZE=thread \
    -DSCIERA_WERROR=ON
  cmake --build "$TSAN_DIR" -j "$JOBS" --target sciera_chaos_cli
  ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" -L threads
fi

# Release flavor: GCC warns about some code only at -O3, after inlining,
# and the sanitizer builds above never see it. Build every target of the
# default Release configuration with -Werror. No ctest here: the
# sanitizer stage already ran the suite.
RELEASE_DIR="$BUILD_DIR-release"
echo "== Release build (-Werror) =="
cmake -B "$RELEASE_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSCIERA_WERROR=ON
cmake --build "$RELEASE_DIR" -j "$JOBS"

# The benchmark of record is its own CMake project over the same src/, so
# no stage above compiles it. Build it in Release and run its smoke size
# (one rep and one traced rep per workload, about a minute): sciera_perf
# exits non-zero when any digest or report gate fails.
BENCH_DIR="$BUILD_DIR-bench"
echo "== benchmark: sciera_perf --smoke =="
cmake -B "$BENCH_DIR" -S "$ROOT/benchmark" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BENCH_DIR" -j "$JOBS"
"$BENCH_DIR/sciera_perf" --smoke

# The smoke prints no result JSON and passes with a declared metric
# missing, so check the output contract itself: one 1 s run per workload
# and trace level must end in result JSON that is correct and carries
# every metric BENCHMARK.json declares for that level.
echo "== benchmark: output contract (BENCHMARK.json) =="
cmake -DBIN="$BENCH_DIR/sciera_perf" -DSPEC="$ROOT/BENCHMARK.json" \
  -P "$ROOT/tools/bench_contract_check.cmake"

echo "== run_checks: all clean =="
