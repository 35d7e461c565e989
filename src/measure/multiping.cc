#include "measure/multiping.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace sciera::measure {

const char* path_choice_name(PathChoice choice) {
  switch (choice) {
    case PathChoice::kShortest: return "shortest";
    case PathChoice::kFastest: return "fastest";
    case PathChoice::kMostDisjoint: return "most-disjoint";
  }
  return "?";
}

double ping_sigma(std::size_t hops, double jitter_sigma) {
  return jitter_sigma *
         std::sqrt(static_cast<double>(std::max<std::size_t>(hops, 1)));
}

PingPath ping_path(Duration base, double sigma) {
  return {base, sigma, std::log(static_cast<double>(base))};
}

namespace {

// Pass 1's half-width per unit of |sigma · radius|: the polynomial's
// bound, plus room for rounding in the bounds' arithmetic.
constexpr double kHalfWidth = detail::kSinCosBound + 0x1p-40;

// detail::cos_2pi, inlined into the pass-1 loop.
inline double cos_2pi(double u, bool sine) {
  // 2πu = (π/2)(k + f) with k = round(4u) and |f| <= 1/2, so |x| <= π/4
  // below, and sin(2πu) = cos(2πu - π/2) lies one quadrant back.
  const double q = 4.0 * u;
  const int k = static_cast<int>(q + 0.5);
  const int m = (k - static_cast<int>(sine)) & 3;
  const double x = (q - k) * (M_PI / 2);
  // cos((π/2)m + x) is cos x, -sin x, -cos x, sin x for m = 0..3. Taylor
  // in y = x² to x^10 and x^11; the first omitted terms bound the error:
  // (π/4)^12/12! < 1.2e-10 and (π/4)^13/13! < 7e-12.
  static constexpr double kTaylor[2][6] = {
      {1.0, -1.0 / 2, 1.0 / 24, -1.0 / 720, 1.0 / 40320, -1.0 / 3628800},
      {1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880,
       -1.0 / 39916800}};
  static constexpr double kSign[4] = {1.0, -1.0, -1.0, 1.0};
  const double* a = kTaylor[m & 1];
  const double y = x * x;
  const double y2 = y * y;
  const double poly = (a[0] + a[1] * y) +
                      y2 * ((a[2] + a[3] * y) + y2 * (a[4] + a[5] * y));
  // x for the sine's odd powers, else 1: a bit select, not a branch.
  const auto odd = std::uint64_t{0} - static_cast<std::uint64_t>(m & 1);
  const double lead = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(x) & odd) |
      (std::bit_cast<std::uint64_t>(1.0) & ~odd));
  return kSign[m] * lead * poly;
}

}  // namespace

double detail::cos_2pi(double u, bool sine) {
  return measure::cos_2pi(u, sine);
}

void MinRtt::clear() {
  paths_.clear();
  draws_.clear();
}

void MinRtt::ping(const PingPath& path, int samples, double loss, Rng& rng) {
  const auto index = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(path);
  for (int s = 0; s < samples; ++s) {
    if (rng.chance(loss)) continue;
    draws_.push_back({rng.draw_normal(), index});
  }
}

void MinRtt::probe(const PingPath& path, Rng& rng) {
  const auto index = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(path);
  draws_.push_back({rng.draw_normal(), index});
}

std::optional<MinRtt::Result> MinRtt::least() {
  // Pass 1 bounds each draw's ln(RTT) = log_base + sigma · radius · cos,
  // with the radius exact, once per pair, and only the cosine approximate.
  double least_upper = std::numeric_limits<double>::infinity();
  double u1 = radius_u1_;
  double radius = radius_;
  for (Draw& d : draws_) {
    if (d.draw.u1 != u1) {
      u1 = d.draw.u1;
      radius = d.draw.radius();
    }
    const PingPath& p = paths_[d.path];
    const double scale = p.sigma * radius;
    const double mid =
        p.log_base + scale * cos_2pi(d.draw.u2, d.draw.second);
    const double half_width = std::abs(scale) * kHalfWidth;
    d.radius = radius;
    d.lower = mid - half_width;
    least_upper = std::min(least_upper, mid + half_width);
  }
  radius_u1_ = u1;
  radius_ = radius;
  // Pass 2 evaluates exactly only the draws that can be the minimum. A
  // draw whose lower bound exceeds the least upper bound U by more than
  // the slack truncates to a whole RTT above the minimum: the slack
  // covers one nanosecond at e^U (truncation), exp's rounding and the
  // bounds' own (DESIGN.md §17). The draw that set U always passes.
  const double slack = std::exp(-least_upper) * (1.0 + 0x1p-30) +
                       (1.0 + std::abs(least_upper)) * 0x1p-40;
  const double cutoff = least_upper + slack;
  std::optional<Result> best;
  for (const Draw& d : draws_) {
    if (d.lower > cutoff) continue;
    const PingPath& p = paths_[d.path];
    const auto rtt = static_cast<Duration>(
        static_cast<double>(p.base) *
        std::exp(d.draw.value(d.radius, 0.0, p.sigma)));
    if (!best || rtt < best->rtt) best = Result{rtt, d.path};
  }
  return best;
}

std::optional<Duration> sample_min_rtt(Duration base, std::size_t hops,
                                       double jitter_sigma, int samples,
                                       double loss, Rng& rng) {
  MinRtt pings;
  pings.ping(ping_path(base, ping_sigma(hops, jitter_sigma)), samples, loss,
             rng);
  const auto least = pings.least();
  if (!least) return std::nullopt;
  return least->rtt;
}

}  // namespace sciera::measure
