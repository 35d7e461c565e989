#include "common/check.h"

#include <cstdio>
#include <cstdlib>

namespace sciera {

CheckRegistry& CheckRegistry::instance() {
  static CheckRegistry registry;
  return registry;
}

void CheckRegistry::record(std::string_view category) {
  const sciera::MutexLock lock(mutex_);
  auto it = counts_.find(category);
  if (it == counts_.end()) {
    counts_.emplace(std::string{category}, 1);
  } else {
    ++it->second;
  }
}

std::uint64_t CheckRegistry::count(std::string_view category) const {
  const sciera::MutexLock lock(mutex_);
  const auto it = counts_.find(category);
  return it == counts_.end() ? 0 : it->second;
}

std::uint64_t CheckRegistry::total() const {
  const sciera::MutexLock lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [category, n] : counts_) sum += n;
  return sum;
}

std::vector<std::pair<std::string, std::uint64_t>> CheckRegistry::snapshot()
    const {
  const sciera::MutexLock lock(mutex_);
  return {counts_.begin(), counts_.end()};
}

void CheckRegistry::reset() {
  const sciera::MutexLock lock(mutex_);
  counts_.clear();
}

void count_violation(std::string_view category) {
  CheckRegistry::instance().record(category);
}

namespace detail {

void check_failed(std::string_view category, const char* expr,
                  const char* file, int line) {
  auto& registry = CheckRegistry::instance();
  registry.record(category);
  std::fprintf(stderr, "[ERR] check: invariant violated [%.*s] %s at %s:%d\n",
               static_cast<int>(category.size()), category.data(), expr, file,
               line);
  if (registry.fail_mode() == CheckFailMode::kAbort) std::abort();
}

}  // namespace detail

}  // namespace sciera
