// Golden fixture for sciera_analyze (lint.analyze_fixtures ctest): one
// unsuppressed and one suppressed case for each determinism/concurrency
// rule that is not directory-scoped. The file is scanned, never
// compiled; tools/analyze_fixture_check.cmake diffs the analyzer's JSON
// findings against tools/analyze_fixtures/expected.json, so line numbers
// here are load-bearing — append, don't reshuffle.
#pragma once

#include <map>
#include <random>
#include <string>
#include <unordered_map>

namespace fixtures {

class DeterminismCases {
 public:
  // unordered-iteration: range-for over a hash container.
  int positive_range_for() const {
    int sum = 0;
    for (const auto& [key, value] : table_) {
      sum += value;
    }
    return sum;
  }

  int suppressed_range_for() const {
    int sum = 0;
    // NOLINTNEXTLINE(unordered-iteration) fixture: suppression grammar
    for (const auto& [key, value] : table_) {
      sum += value;
    }
    return sum;
  }

  // Membership lookups on the same container must NOT be flagged.
  bool lookup_is_fine(int key) const { return table_.find(key) != table_.end(); }

 private:
  std::unordered_map<int, int> table_;

  // pointer-key-container: even ordered maps iterate in address order
  // when keyed by a pointer.
  std::map<const char*, int> by_pointer_;
  std::map<const char*, int> by_pointer_ok_;  // NOLINT(pointer-key-container)

  // unseeded-rng: std engines bypass sciera::Rng's replay-from-seed
  // contract.
  std::mt19937 raw_engine_;
  std::mt19937 raw_engine_ok_;  // NOLINT(unseeded-rng)

  // std-mutex-member: invisible to thread-safety analysis.
  std::mutex raw_mutex_;
  std::mutex raw_mutex_ok_;  // NOLINT(std-mutex-member)

  // legacy-nolint: bare marker still suppresses, but warns.
  int legacy_marker_ = 0;  // NOLINT
};

}  // namespace fixtures
