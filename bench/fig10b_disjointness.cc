// Figure 10b: CDF of path disjointness over all path combinations of all
// AS pairs (1.0 = fully disjoint).
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 10b — CDF of pairwise path disjointness",
      "~30% of path combinations fully disjoint; ~80% of combinations at "
      "disjointness >= 0.7 (only 30% of links in common)");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto disjointness = analysis::pairwise_disjointness(
      result, 8, topology::path_matrix_ases());
  const analysis::Cdf cdf{disjointness};

  std::printf("%s\n",
              analysis::render_chart(
                  {analysis::cdf_series("disjointness", cdf.sorted_samples())},
                  "path disjointness", "CDF over path combinations")
                  .c_str());

  const double fully = 1.0 - cdf.fraction_below(0.999);
  const double above_07 = 1.0 - cdf.fraction_below(0.7 - 1e-9);
  std::printf("combinations: %zu | fully disjoint: %.1f%% | >= 0.7: %.1f%% | "
              "median %.3f\n\n",
              cdf.size(), 100.0 * fully, 100.0 * above_07, cdf.median());

  bench::print_check(fully > 0.05, "a substantial share is fully disjoint");
  bench::print_check(above_07 > 0.6,
                     "most combinations reach disjointness >= 0.7");
  bench::print_check(cdf.min() >= 0.5 && cdf.max() <= 1.0,
                     "metric bounded in [0.5, 1] (union/total definition)");
  return bench::exit_code();
}
