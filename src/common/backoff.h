// The circuit breaker behind the daemon's replica failover, the one
// failure-handling primitive of every RPC-ish client in the stack.
// Centralized so the policy is uniform and auditable: sciera_analyze bans
// ad-hoc retry loops outside src/chaos/ and this helper (raw-retry-loop).
//
// Its windows are sim-time spans, so resilience behaviour replays
// bit-identically under simnet::audit_determinism().
#pragma once

#include <cstdint>

#include "common/time.h"

namespace sciera {

// Per-destination circuit breaker: after kFailureThreshold consecutive
// failures the breaker opens for kOpenFor of simulated time and callers
// should fail fast (degrade) instead of hammering a dead service. Once
// the window elapses the breaker is half-open: the next request is let
// through as a probe; success closes the breaker, failure re-opens it.
class CircuitBreaker {
 public:
  static constexpr std::uint32_t kFailureThreshold = 3;
  static constexpr Duration kOpenFor = 10 * kSecond;

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
  std::uint32_t consecutive_failures_ = 0;
  bool open_ = false;
  SimTime open_until_ = 0;
  std::uint64_t times_opened_ = 0;
};

}  // namespace sciera
