// Golden fixture for the rules' scope in tests/: the tree-wide rules
// apply, the src/-only ones (adhoc-stats, raw-retry-loop, unseeded-rng
// and the other analyzer rules) do not. Scanned, never compiled; line
// numbers are pinned by expected.json.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>

namespace fixtures {

// banned-function and wall-clock-seed apply in tests/.
inline void positive_in_tests(char* out) { std::sprintf(out, "%d", 1); }
inline auto clock_in_tests() { return std::chrono::system_clock::now(); }

// A counting allocator declares operator new[]: not a raw array new.
void* operator new[](std::size_t size);

// src/-only rules: not flagged here.
struct Stats { int sent = 0; };
inline void retry_loop_in_tests(int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
  }
}

// legacy-nolint: a named marker suppresses the warning on a bare one.
// NOLINTNEXTLINE(legacy-nolint) fixture
inline int legacy_marker_ok = 0;  // NOLINT

}  // namespace fixtures
