// Figure 10c: impact of random link failures on AS connectivity —
// multipath vs a single-(shortest-)path alternative, 100 runs.
#include "analysis/resilience.h"
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 10c — AS pairs with connectivity vs fraction of links removed",
      "multipath keeps ~90% of pairs connected at 20% links removed, "
      "single-path drops to ~50%");

  const topology::Topology topo = topology::build_sciera();
  analysis::ResilienceOptions options;
  options.runs = 100;
  const auto points = analysis::link_failure_resilience(topo, options);

  analysis::Series multi{"Multipath", {}};
  analysis::Series single{"Singlepath", {}};
  for (const auto& point : points) {
    multi.points.emplace_back(100.0 * point.fraction_links_removed,
                              100.0 * point.multipath_connectivity);
    single.points.emplace_back(100.0 * point.fraction_links_removed,
                               100.0 * point.singlepath_connectivity);
  }
  std::printf("%s\n", analysis::render_chart(
                          {multi, single}, "fraction of links removed (%)",
                          "AS pairs with connectivity (%)")
                          .c_str());

  auto at = [&](double fraction) {
    const analysis::ResiliencePoint* best = &points.front();
    for (const auto& point : points) {
      if (std::abs(point.fraction_links_removed - fraction) <
          std::abs(best->fraction_links_removed - fraction)) {
        best = &point;
      }
    }
    return *best;
  };

  std::printf("%-10s %12s %12s\n", "removed", "multipath", "singlepath");
  for (double f : {0.1, 0.2, 0.3, 0.5, 0.7}) {
    const auto point = at(f);
    std::printf("%9.0f%% %11.1f%% %11.1f%%\n",
                100 * point.fraction_links_removed,
                100 * point.multipath_connectivity,
                100 * point.singlepath_connectivity);
  }
  std::printf("\n");

  const auto p20 = at(0.2);
  bench::print_check(p20.multipath_connectivity > 0.75,
                     "multipath: most pairs still connected at 20% removed");
  bench::print_check(
      p20.singlepath_connectivity < p20.multipath_connectivity - 0.2,
      "single-path loses far more pairs at 20% removed");
  bench::print_check(points.front().multipath_connectivity == 1.0 &&
                         points.back().multipath_connectivity == 0.0,
                     "curves span full connectivity to none");
  return bench::exit_code();
}
