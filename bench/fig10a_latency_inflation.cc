// Figure 10a: CDF of path latency inflation d2/d1 — how close the
// second-best path is to the best, per AS pair.
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 10a — CDF of path latency inflation (d2/d1) across AS pairs",
      "~40% of pairs have a second path with nearly identical RTT "
      "(inflation ~1.0); 80% below 1.2");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto inflation = analysis::latency_inflation(result);
  const analysis::Cdf cdf{inflation};

  std::printf("%s\n", analysis::render_chart(
                          {analysis::cdf_series("d2/d1", cdf.sorted_samples())},
                          "latency inflation (d2/d1)", "CDF over AS pairs")
                          .c_str());

  std::printf("pairs: %zu | <=1.05: %.1f%% | <=1.2: %.1f%% | median %.3f | "
              "max %.2f\n\n",
              cdf.size(), 100.0 * cdf.fraction_below(1.05),
              100.0 * cdf.fraction_below(1.2), cdf.median(), cdf.max());

  bench::print_check(cdf.fraction_below(1.05) > 0.30,
                     "a large share of pairs has a near-equal second path");
  bench::print_check(cdf.fraction_below(1.2) > 0.70,
                     "~80% of pairs below 20% inflation");
  bench::print_check(cdf.min() >= 1.0, "inflation is >= 1 by construction");
  return bench::exit_code();
}
