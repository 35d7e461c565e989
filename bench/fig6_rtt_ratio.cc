// Figure 6: CDF of per-AS-pair mean RTT ratio (SCION / IP), with the three
// outlier sets the paper annotates.
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 6 — CDF of the RTT ratio of SCION compared to IP per AS pair",
      "a sizable set of pairs faster over SCION; ~80% below 1.25x; "
      "outliers: KREONET link outage detours, BRIDGES instability "
      "(UVa/Princeton/Equinix), UFMS->Equinix routed through GEANT");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto ratios = analysis::pair_ratios(result);

  std::vector<double> values;
  for (const auto& ratio : ratios) values.push_back(ratio.ratio);
  const analysis::Cdf cdf{values};

  std::printf("%s\n",
              analysis::render_chart(
                  {analysis::cdf_series("SCION/IP ratio", cdf.sorted_samples())},
                  "RTT ratio (SCION / IP)", "CDF over AS pairs")
                  .c_str());

  std::printf("pairs: %zu | below 1.0: %.1f%% | below 1.25: %.1f%% | max "
              "%.2f\n\n",
              cdf.size(), 100.0 * cdf.fraction_below(1.0),
              100.0 * cdf.fraction_below(1.25), cdf.max());

  std::printf("top outlier pairs (the paper's annotated sets):\n");
  namespace a = topology::ases;
  for (std::size_t i = ratios.size() > 8 ? ratios.size() - 8 : 0;
       i < ratios.size(); ++i) {
    std::printf("  %-12s -> %-12s ratio %5.2f  (scion %6.1f ms, ip %6.1f ms)\n",
                ratios[i].src.to_string().c_str(),
                ratios[i].dst.to_string().c_str(), ratios[i].ratio,
                ratios[i].mean_scion_ms, ratios[i].mean_ip_ms);
  }
  std::printf("\n");

  double ufms_equinix = 0;
  bool bridges_outlier = false;
  for (const auto& ratio : ratios) {
    if (ratio.src == a::ufms() && ratio.dst == a::equinix()) {
      ufms_equinix = ratio.ratio;
    }
    const bool bridges_pair =
        (ratio.src == a::uva() && ratio.dst == a::equinix()) ||
        (ratio.src == a::equinix() && ratio.dst == a::uva());
    if (bridges_pair && ratio.ratio > cdf.median()) bridges_outlier = true;
  }

  bench::print_check(cdf.fraction_below(1.0) > 0.25,
                     "a sizable set of pairs sees lower latency over SCION");
  bench::print_check(cdf.fraction_below(1.25) > 0.75,
                     "~80% of pairs below 1.25x inflation");
  bench::print_check(cdf.max() > 1.5, "outlier pairs exist (>1.5x)");
  bench::print_check(ufms_equinix > std::max(1.2, cdf.median()),
                     "UFMS->Equinix (SCION via GEANT) is an outlier");
  bench::print_check(bridges_outlier,
                     "BRIDGES-instability pairs sit above the median");
  return bench::exit_code();
}
