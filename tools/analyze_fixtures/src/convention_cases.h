// Golden fixture for the convention rules in src/ (outside src/obs/,
// src/chaos/ and src/endhost/): one unsuppressed and one suppressed case
// per rule, plus the negatives that pin what each rule must not match.
// Scanned, never compiled; line numbers are pinned by expected.json.
#pragma once

#include <chrono>
#include <cstring>
#include <ctime>
#include <random>

namespace fixtures {

// banned-function. rand() inside this comment is not a call.
inline int positive_banned_call() { return rand(); }
inline void suppressed_banned_call(char* dst, const char* src) {
  std::strcpy(dst, src);  // NOLINT(banned-function) fixture
}
inline int* positive_array_new(int n) { return new int[n]; }
// NOLINTNEXTLINE(banned-function) fixture: suppressed raw array new
inline int* suppressed_array_new(int n) { return new int[n]; }

// wall-clock-seed: time() and the std::chrono clocks break replay.
inline long positive_wall_clock() { return time(nullptr); }
inline auto suppressed_wall_clock() {
  return std::chrono::steady_clock::now();  // NOLINT(wall-clock-seed) fixture
}
// In src/, random_device draws both wall-clock-seed and unseeded-rng.
inline unsigned positive_entropy() { return std::random_device{}(); }

// using-namespace: a header's using-directive leaks into every includer.
using namespace std::chrono;
using namespace std::literals;  // NOLINT(using-namespace) fixture

// adhoc-stats: components report through the metrics registry.
struct Stats { int sent = 0; };
struct Stats { int sent = 0; };  // NOLINT(adhoc-stats) fixture
// The old snapshot marker is only a comment: it exempts nothing.
struct Stats { int sent = 0; };  // registry-backed snapshot

// raw-retry-loop: failures go through CircuitBreaker.
inline void retry_loops(int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
  }
  // NOLINTNEXTLINE(raw-retry-loop) fixture
  while (retries-- > 0) {
  }
}

}  // namespace fixtures
