#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace sciera::obs {
namespace {

// Unambiguous key string for a canonical label set ('\x1f' cannot appear
// in identifiers; values with it would only confuse their own series).
std::string label_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1f';
  }
  return key;
}

}  // namespace

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

Labels canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  SCIERA_DCHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
                "obs.histogram_bounds_unsorted");
}

void Histogram::observe(std::int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += value;
  ++count_;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    std::string_view name, const Labels& labels, MetricType type) {
  Labels canonical = canonical_labels(labels);
  const Key key{std::string{name}, label_key(canonical)};
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series series;
    series.type = type;
    series.labels = std::move(canonical);
    it = series_.emplace(key, std::move(series)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  const sciera::MutexLock lock(mutex_);
  Series& series = find_or_create(name, labels, MetricType::kCounter);
  if (series.type != MetricType::kCounter) {
    count_violation("obs.metric_type_mismatch");
    static Counter orphan;
    return orphan;
  }
  if (!series.counter) series.counter = std::unique_ptr<Counter>(new Counter);
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const sciera::MutexLock lock(mutex_);
  Series& series = find_or_create(name, labels, MetricType::kGauge);
  if (series.type != MetricType::kGauge) {
    count_violation("obs.metric_type_mismatch");
    static Gauge orphan;
    return orphan;
  }
  if (!series.gauge) series.gauge = std::unique_ptr<Gauge>(new Gauge);
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::int64_t> bounds,
                                      const Labels& labels) {
  const sciera::MutexLock lock(mutex_);
  Series& series = find_or_create(name, labels, MetricType::kHistogram);
  if (series.type != MetricType::kHistogram) {
    count_violation("obs.metric_type_mismatch");
    static Histogram orphan{{}};
    return orphan;
  }
  if (!series.histogram) {
    series.histogram =
        std::unique_ptr<Histogram>(new Histogram{std::move(bounds)});
  }
  return *series.histogram;
}

std::string MetricsRegistry::instance_label(std::string_view kind,
                                            std::string_view base) {
  const sciera::MutexLock lock(mutex_);
  const auto n = ++instances_[{std::string{kind}, std::string{base}}];
  if (n == 1) return std::string{base};
  return std::string{base} + "#" + std::to_string(n);
}

void MetricsRegistry::reset() {
  const sciera::MutexLock lock(mutex_);
  series_.clear();
  instances_.clear();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const sciera::MutexLock lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    MetricSample sample;
    sample.name = key.first;
    sample.type = series.type;
    sample.labels = series.labels;
    switch (series.type) {
      case MetricType::kCounter:
        if (series.counter) sample.counter_value = series.counter->value();
        break;
      case MetricType::kGauge:
        if (series.gauge) sample.gauge_value = series.gauge->value();
        break;
      case MetricType::kHistogram:
        if (series.histogram) {
          sample.bounds = series.histogram->bounds();
          sample.buckets = series.histogram->buckets_;
          sample.sum = series.histogram->sum();
          sample.count = series.histogram->count();
        }
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::size_t MetricsRegistry::series() const {
  const sciera::MutexLock lock(mutex_);
  return series_.size();
}

}  // namespace sciera::obs
