#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace sciera::analysis {

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Cdf::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double Cdf::min() const { return samples_.empty() ? 0.0 : samples_.front(); }
double Cdf::max() const { return samples_.empty() ? 0.0 : samples_.back(); }

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Cdf::fraction_below(double x) const {
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

RttDistributions rtt_distributions(const measure::CampaignResult& result) {
  std::vector<double> scion, ip;
  for (const auto& record : result.intervals) {
    // The paper excludes intervals where the ICMP tool stalled; our
    // equivalent is requiring both sides to have samples in the interval.
    if (record.scion_min_rtt && record.scion_ok > 0) {
      scion.push_back(to_ms(*record.scion_min_rtt));
    }
    if (record.ip_min_rtt && record.ip_ok > 0) {
      ip.push_back(to_ms(*record.ip_min_rtt));
    }
  }
  return RttDistributions{Cdf{std::move(scion)}, Cdf{std::move(ip)}};
}

std::vector<PairRatio> pair_ratios(const measure::CampaignResult& result) {
  struct Acc {
    double scion_sum = 0;
    double ip_sum = 0;
    std::size_t scion_n = 0;
    std::size_t ip_n = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Acc> acc;
  for (const auto& record : result.intervals) {
    Acc& entry = acc[{record.src.packed(), record.dst.packed()}];
    if (record.scion_min_rtt) {
      entry.scion_sum += to_ms(*record.scion_min_rtt);
      ++entry.scion_n;
    }
    if (record.ip_min_rtt) {
      entry.ip_sum += to_ms(*record.ip_min_rtt);
      ++entry.ip_n;
    }
  }
  std::vector<PairRatio> out;
  for (const auto& [key, entry] : acc) {
    if (entry.scion_n == 0 || entry.ip_n == 0) continue;
    PairRatio ratio;
    ratio.src = IsdAs::from_packed(key.first);
    ratio.dst = IsdAs::from_packed(key.second);
    ratio.mean_scion_ms = entry.scion_sum / static_cast<double>(entry.scion_n);
    ratio.mean_ip_ms = entry.ip_sum / static_cast<double>(entry.ip_n);
    ratio.ratio = ratio.mean_scion_ms / ratio.mean_ip_ms;
    out.push_back(ratio);
  }
  std::sort(out.begin(), out.end(),
            [](const PairRatio& x, const PairRatio& y) {
              return x.ratio < y.ratio;
            });
  return out;
}

std::vector<RatioPoint> ratio_timeline(const measure::CampaignResult& result,
                                       Duration bucket) {
  // Mean of per-record ratios per bucket, so every AS pair contributes
  // equally regardless of its absolute RTT (the paper plots the ratio for
  // "all AS pairs over time").
  struct Acc {
    double ratio_sum = 0;
    std::size_t n = 0;
  };
  std::map<SimTime, Acc> buckets;
  for (const auto& record : result.intervals) {
    if (!record.scion_min_rtt || !record.ip_min_rtt) continue;
    if (*record.ip_min_rtt <= 0) continue;
    Acc& entry = buckets[record.start / bucket];
    entry.ratio_sum += static_cast<double>(*record.scion_min_rtt) /
                       static_cast<double>(*record.ip_min_rtt);
    ++entry.n;
  }
  std::vector<RatioPoint> out;
  for (const auto& [index, entry] : buckets) {
    if (entry.n == 0) continue;
    RatioPoint point;
    point.day = static_cast<double>(index) *
                (static_cast<double>(bucket) / static_cast<double>(kDay));
    point.ratio = entry.ratio_sum / static_cast<double>(entry.n);
    out.push_back(point);
  }
  return out;
}

PathMatrix path_matrices(const measure::CampaignResult& result,
                         const std::vector<IsdAs>& ases) {
  PathMatrix matrix;
  matrix.ases = ases;
  const std::size_t n = ases.size();
  matrix.max_paths.assign(n, std::vector<int>(n, -1));
  matrix.median_deviation.assign(n, std::vector<int>(n, -1));

  auto index_of = [&](IsdAs ia) -> int {
    for (std::size_t i = 0; i < n; ++i) {
      if (ases[i] == ia) return static_cast<int>(i);
    }
    return -1;
  };

  std::map<std::pair<int, int>, std::vector<int>> counts;
  for (const auto& record : result.intervals) {
    const int i = index_of(record.src);
    const int j = index_of(record.dst);
    if (i < 0 || j < 0 || i == j) continue;
    counts[{i, j}].push_back(static_cast<int>(record.active_paths));
  }
  for (auto& [key, values] : counts) {
    std::sort(values.begin(), values.end());
    const int maximum = values.back();
    const int median = values[values.size() / 2];
    matrix.max_paths[static_cast<std::size_t>(key.first)]
                    [static_cast<std::size_t>(key.second)] = maximum;
    matrix.median_deviation[static_cast<std::size_t>(key.first)]
                           [static_cast<std::size_t>(key.second)] =
        maximum - median;
  }
  // Rows for ASes that are not vantage points are mirrored from the
  // reverse direction (SCION path sets are symmetric per segment pair).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (matrix.max_paths[i][j] < 0 && matrix.max_paths[j][i] >= 0) {
        matrix.max_paths[i][j] = matrix.max_paths[j][i];
        matrix.median_deviation[i][j] = matrix.median_deviation[j][i];
      }
    }
  }
  return matrix;
}

std::vector<double> latency_inflation(const measure::CampaignResult& result) {
  std::vector<double> out;
  for (const auto& pair : result.pair_paths) {
    if (pair.paths.size() < 2) continue;
    std::vector<Duration> rtts;
    rtts.reserve(pair.paths.size());
    for (const auto& path : pair.paths) rtts.push_back(path.static_rtt);
    std::sort(rtts.begin(), rtts.end());
    if (rtts[0] <= 0) continue;
    out.push_back(static_cast<double>(rtts[1]) / static_cast<double>(rtts[0]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> pairwise_disjointness(
    const measure::CampaignResult& result, std::size_t max_paths_per_pair,
    const std::vector<IsdAs>& restrict_to) {
  std::vector<double> out;
  const auto allowed = [&](IsdAs ia) {
    return restrict_to.empty() ||
           std::find(restrict_to.begin(), restrict_to.end(), ia) !=
               restrict_to.end();
  };
  for (const auto& pair : result.pair_paths) {
    if (!allowed(pair.src) || !allowed(pair.dst)) continue;
    // One representative per distinct AS-level route (parallel-channel
    // variants are near-duplicates that would otherwise dominate the
    // quadratic), then a uniform stride sample across those routes.
    std::vector<const controlplane::Path*> routes;
    std::set<std::string> seen_sequences;
    for (const auto& path : pair.paths) {
      std::string key;
      for (IsdAs ia : path.as_sequence) key += ia.to_string() + ">";
      if (seen_sequences.insert(key).second) routes.push_back(&path);
    }
    std::vector<const controlplane::Path*> sample;
    const std::size_t n = routes.size();
    if (n == 0) continue;
    const std::size_t stride =
        std::max<std::size_t>(1, n / max_paths_per_pair);
    for (std::size_t i = 0; i < n && sample.size() < max_paths_per_pair;
         i += stride) {
      sample.push_back(routes[i]);
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (std::size_t j = i + 1; j < sample.size(); ++j) {
        out.push_back(controlplane::path_disjointness(*sample[i], *sample[j]));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sciera::analysis
