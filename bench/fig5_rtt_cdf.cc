// Figure 5: CDF of ping latency for SCION and IP over the 20-day campaign.
#include <cmath>

#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 5 — CDF of ping RTT, SCION (min over 3 paths) vs IP (BGP)",
      "similar trend for the first ~50%; median reduced 6.9% (160.9 -> "
      "149.8 ms); p90 reduced 23.7% (376 -> 287 ms)");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto dist = analysis::rtt_distributions(result);

  std::printf("%s\n",
              analysis::render_chart(
                  {analysis::cdf_series("SCION", dist.scion_ms.sorted_samples()),
                   analysis::cdf_series("IP", dist.ip_ms.sorted_samples())},
                  "RTT (ms)", "Proportion of pings")
                  .c_str());

  std::printf("samples: SCION %zu, IP %zu\n", dist.scion_ms.size(),
              dist.ip_ms.size());
  std::printf("%-12s %10s %10s %10s\n", "percentile", "SCION(ms)", "IP(ms)",
              "reduction");
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double s = dist.scion_ms.percentile(p);
    const double i = dist.ip_ms.percentile(p);
    std::printf("%-12.2f %10.1f %10.1f %9.1f%%\n", p, s, i,
                100.0 * (1.0 - s / i));
  }
  std::printf("\n");

  const double median_gain =
      1.0 - dist.scion_ms.median() / dist.ip_ms.median();
  const double p90_gain =
      1.0 - dist.scion_ms.percentile(0.9) / dist.ip_ms.percentile(0.9);
  const double p25_gap =
      std::abs(1.0 - dist.scion_ms.percentile(0.25) /
                         dist.ip_ms.percentile(0.25));

  bench::print_check(median_gain > 0.0, "SCION median below IP median");
  bench::print_check(p90_gain > median_gain,
                     "improvement more pronounced for the slowest pings");
  bench::print_check(p25_gap < 0.15,
                     "similar trend in the first half of the distribution");
  return bench::exit_code();
}
