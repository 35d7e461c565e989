// Dataset artifact: the paper publishes its multiping dataset and setup
// instructions in a public repository [19, 20]. This bench regenerates the
// equivalent CSV dataset from the simulated campaign and writes it next to
// the binary (sciera_intervals.csv / sciera_probes.csv), then prints
// integrity statistics.
#include <fstream>

#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Dataset export — the public scion-go-multiping dataset equivalent",
      "~265M ping measurements and 3M path statistics over 20 days, "
      "published as CSV [19, 20]");

  bench::World world;
  measure::CampaignOptions options;
  options.duration = 20 * kDay;
  options.interval = 30 * kMinute;
  measure::Campaign campaign{world.net, world.bgp, options};
  const auto result = campaign.run();

  const std::string intervals = result.intervals_csv();
  const std::string probes = result.probes_csv();
  {
    std::ofstream out{"sciera_intervals.csv"};
    out << intervals;
  }
  {
    std::ofstream out{"sciera_probes.csv"};
    out << probes;
  }

  std::uint64_t pings = 0;
  for (const auto& record : result.intervals) {
    pings += static_cast<std::uint64_t>(record.scion_ok + record.ip_ok);
  }
  std::printf("wrote sciera_intervals.csv (%zu rows, %.1f MB) and "
              "sciera_probes.csv (%zu rows, %.1f MB)\n",
              result.intervals.size(),
              static_cast<double>(intervals.size()) / 1e6,
              result.intervals.size(),
              static_cast<double>(probes.size()) / 1e6);
  std::printf("represented ping measurements: %llu | path statistics: %zu\n\n",
              static_cast<unsigned long long>(pings), result.intervals.size());

  bench::print_check(!result.intervals.empty(),
                     "dataset is non-empty and loadable");
  bench::print_check(pings > 1'000'000,
                     "millions of represented ping measurements");
  return bench::exit_code();
}
