#include "measure/multiping.h"

#include <algorithm>
#include <cmath>

namespace sciera::measure {

const char* path_choice_name(PathChoice choice) {
  switch (choice) {
    case PathChoice::kShortest: return "shortest";
    case PathChoice::kFastest: return "fastest";
    case PathChoice::kMostDisjoint: return "most-disjoint";
  }
  return "?";
}

Duration sample_rtt(Duration base, std::size_t hops, double jitter_sigma,
                    Rng& rng) {
  // Jitter accumulates over hops (queueing at each router); a square-root
  // law keeps long paths from exploding.
  const double sigma =
      jitter_sigma * std::sqrt(static_cast<double>(std::max<std::size_t>(hops, 1)));
  return static_cast<Duration>(static_cast<double>(base) *
                               rng.lognormal_median(1.0, sigma));
}

std::optional<Duration> sample_min_rtt(Duration base, std::size_t hops,
                                       double jitter_sigma, int samples,
                                       double loss, Rng& rng) {
  const double sigma = jitter_sigma * std::sqrt(static_cast<double>(
                                          std::max<std::size_t>(hops, 1)));
  std::optional<double> min_draw;
  for (int s = 0; s < samples; ++s) {
    if (rng.chance(loss)) continue;
    const double draw = rng.normal(0.0, sigma);
    if (!min_draw || draw < *min_draw) min_draw = draw;
  }
  if (!min_draw) return std::nullopt;
  return static_cast<Duration>(static_cast<double>(base) * std::exp(*min_draw));
}

}  // namespace sciera::measure
