// Retry/backoff/degradation primitives shared by every RPC-ish client in
// the stack (daemon path fetches, control-service consumers). Centralized
// so the policy is uniform and auditable: sciera_analyze bans ad-hoc
// retry loops outside src/chaos/ and this helper (raw-retry-loop).
//
// Everything here is driven by the simulation clock and an explicit Rng:
// backoff jitter is deterministic per seed, and circuit-breaker windows
// are sim-time spans, so resilience behaviour replays bit-identically
// under simnet::audit_determinism().
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/time.h"

namespace sciera {

// Bounded exponential backoff with deterministic, Rng-driven jitter.
// Attempt numbering: attempt 1 is the first retry (the initial try has no
// delay). delay(n) grows geometrically from `initial`, is clamped at
// `max_delay`, and is then spread by +/- jitter_frac uniformly.
struct BackoffPolicy {
  Duration initial = 200 * kMillisecond;
  double multiplier = 2.0;
  Duration max_delay = 5 * kSecond;
  // Total tries including the initial one; retries stop after this many.
  std::size_t max_attempts = 4;
  // Fraction of the nominal delay used as a +/- uniform jitter band.
  double jitter_frac = 0.2;

  // Delay before retry number `attempt` (>= 1), jittered from `rng`.
  // Always returns at least 1ns so a retry never lands on the same tick
  // as the failure that triggered it.
  [[nodiscard]] Duration delay(std::size_t attempt, Rng& rng) const;
};

// Per-destination circuit breaker: after `failure_threshold` consecutive
// failures the breaker opens for `open_for` of simulated time and callers
// should fail fast (degrade) instead of hammering a dead service. Once
// the window elapses the breaker is half-open: the next request is let
// through as a probe; success closes the breaker, failure re-opens it.
class CircuitBreaker {
 public:
  struct Config {
    std::uint32_t failure_threshold = 3;
    Duration open_for = 10 * kSecond;
  };

  CircuitBreaker() : CircuitBreaker(Config{}) {}
  explicit CircuitBreaker(Config config) : config_(config) {}

  // Whether a request may be issued now (closed, or half-open probe).
  [[nodiscard]] bool allow(SimTime now) const {
    return !open_ || now >= open_until_;
  }

  void record_success() {
    consecutive_failures_ = 0;
    open_ = false;
  }

  void record_failure(SimTime now);

  // Times the breaker transitioned closed/half-open -> open.
  [[nodiscard]] std::uint64_t times_opened() const { return times_opened_; }

 private:
  Config config_;
  std::uint32_t consecutive_failures_ = 0;
  bool open_ = false;
  SimTime open_until_ = 0;
  std::uint64_t times_opened_ = 0;
};

}  // namespace sciera
