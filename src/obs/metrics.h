// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, each keyed by {name, labels}. Components register their
// series once (construction time or first touch) and keep raw pointers to
// the integer cells, so the hot path is a single integer increment with no
// locking and no lookup — the registration map's mutex is only taken when
// a new series is created or a snapshot is exported.
//
// Determinism contract: snapshot() orders series by (name, canonical
// labels), and instance_label() hands out per-kind instance names purely
// from registration order — two processes that construct the same objects
// in the same order export byte-identical snapshots. Counters are relaxed
// atomics, so threads that share a registry may increment the same cell
// concurrently (a pure sum is interleaving-independent); the simulation
// core is serial, so in a simulation one thread writes them all. Gauges
// and histograms stay plain integers with a single writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace sciera::obs {

// Label set attached to one series. Order is irrelevant: the registry
// canonicalizes (sorts by key) before using it as part of the series key.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_type_name(MetricType type);

// Monotonic event count, never reset; a delta is two reads.
class Counter {
 public:
  // Relaxed: counts are pure sums, so no ordering is needed. An exact
  // read happens on the writing thread (a simulation's one thread) or
  // after the writers are joined.
  void inc(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time signed level (queue depths, quarantine sizes, ...).
class Gauge {
 public:
  void set(std::int64_t value) { value_ = value; }
  void add(std::int64_t delta) { value_ += delta; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

// Fixed-bucket histogram over int64 observations. `bounds` are ascending
// inclusive upper bounds ("le" semantics): an observation lands in the
// first bucket whose bound it does not exceed, or in the implicit
// overflow bucket past the last bound.
class Histogram {
 public:
  void observe(std::int64_t value);

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<std::int64_t> bounds);

  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1
  std::int64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

// One exported series, fully resolved. Histogram buckets are
// non-cumulative here; exporters derive the cumulative "le" form.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  Labels labels;  // canonical (sorted by key)
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;
  std::int64_t sum = 0;
  std::uint64_t count = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every component reports into.
  static MetricsRegistry& global();

  // Returns the cell for {name, labels}, creating it on first use. The
  // returned reference stays valid for the registry's lifetime (or until
  // reset()). Re-registering an existing key with a different metric type
  // is a programming error (recorded as a check violation; the original
  // cell wins and a detached dummy cell is returned).
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  // `bounds` must be ascending; only the first registration's bounds are
  // used for a given key.
  Histogram& histogram(std::string_view name, std::vector<std::int64_t> bounds,
                       const Labels& labels = {});

  // Hands out a unique instance name of the given kind: the first caller
  // gets `base` verbatim, later callers get "base#2", "base#3", ... —
  // deterministic across processes as long as construction order is.
  std::string instance_label(std::string_view kind, std::string_view base);

  // Test-only: drops every series and instance name. Invalidates all
  // outstanding cell pointers — only call when no registered component is
  // alive.
  void reset();

  [[nodiscard]] std::vector<MetricSample> snapshot() const;
  [[nodiscard]] std::size_t series() const;

 private:
  struct Series {
    MetricType type = MetricType::kCounter;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  // (metric name, canonical label string) -> series.
  using Key = std::pair<std::string, std::string>;

  Series& find_or_create(std::string_view name, const Labels& labels,
                         MetricType type) SCIERA_REQUIRES(mutex_);

  mutable sciera::Mutex mutex_;
  std::map<Key, Series> series_ SCIERA_GUARDED_BY(mutex_);
  std::map<std::pair<std::string, std::string>, std::uint64_t> instances_
      SCIERA_GUARDED_BY(mutex_);
};

// Canonical (sorted by key) copy of a label set.
[[nodiscard]] Labels canonical_labels(const Labels& labels);

}  // namespace sciera::obs
