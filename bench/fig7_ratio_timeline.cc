// Figure 7: RTT ratio of SCION compared to IP over the campaign timeline,
// with the January 21 maintenance spike, the January 25 stabilization
// (new EU-US links), and the February 6 upgrade spike.
#include <cmath>

#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 7 — SCION/IP RTT ratio over time",
      "baseline episodes around 15-20% lower SCION RTTs; spike on Jan 21 "
      "(maintenance); stabilization after Jan 25 (new EU-US links); spike "
      "again after Feb 6 (upgrades)");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto timeline = analysis::ratio_timeline(result, 6 * kHour);

  analysis::Series ratio_series{"SCION/IP ratio", {}};
  analysis::Series baseline{"IP baseline (1.0)", {}};
  for (const auto& point : timeline) {
    ratio_series.points.emplace_back(point.day, point.ratio);
    baseline.points.emplace_back(point.day, 1.0);
  }
  std::printf("%s\n", analysis::render_chart({ratio_series, baseline},
                                             "campaign day (day 0 = Jan 17)",
                                             "SCION/IP RTT ratio")
                          .c_str());

  auto window_mean = [&](double from_day, double to_day) {
    double sum = 0;
    int n = 0;
    for (const auto& point : timeline) {
      if (point.day >= from_day && point.day < to_day) {
        sum += point.ratio;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / n;
  };
  auto window_max = [&](double from_day, double to_day) {
    double best = 0;
    for (const auto& point : timeline) {
      if (point.day >= from_day && point.day < to_day) {
        best = std::max(best, point.ratio);
      }
    }
    return best;
  };

  const double before_jan21 = window_mean(0.5, 4);
  const double jan21_spike = window_max(4, 5.5);
  const double stable = window_mean(12, 19);
  const double feb6_spike = window_max(19.4, 20);
  std::printf("mean ratio days 0-4: %.3f | Jan21 max: %.3f | days 9-19 mean: "
              "%.3f | Feb6 max: %.3f\n\n",
              before_jan21, jan21_spike, stable, feb6_spike);

  bench::print_check(before_jan21 < 1.0,
                     "baseline ratio below 1.0 (SCION faster on average)");
  bench::print_check(jan21_spike > before_jan21 + 0.03,
                     "Jan 21 maintenance produces a visible spike");
  bench::print_check(feb6_spike > stable + 0.03,
                     "Feb 6 upgrades produce a second spike");
  // Stability: standard deviation after Jan 25 lower than before.
  auto stddev = [&](double from_day, double to_day) {
    double sum = 0, sumsq = 0;
    int n = 0;
    for (const auto& point : timeline) {
      if (point.day >= from_day && point.day < to_day) {
        sum += point.ratio;
        sumsq += point.ratio * point.ratio;
        ++n;
      }
    }
    if (n < 2) return 0.0;
    const double mean = sum / n;
    return std::sqrt(std::max(0.0, sumsq / n - mean * mean));
  };
  bench::print_check(stddev(12, 19) < stddev(3.5, 8),
                     "ratio stabilizes after the maintenance window");
  return bench::exit_code();
}
