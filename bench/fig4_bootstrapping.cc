// Figure 4: end-host bootstrapping latency — hint retrieval, configuration
// retrieval, and total, per OS (Windows/Linux/Mac), 30 runs per hinting
// mechanism, boxes over the pooled runs.
#include "bench_common.h"
#include "endhost/bootstrapper.h"

using namespace sciera;
using namespace sciera::endhost;

int main() {
  bench::print_header(
      "Figure 4 — network hint retrieval, configuration retrieval, and "
      "overall bootstrapping latency per platform",
      "median total < 150 ms on every OS; hint step cheaper than config "
      "step; Windows slowest, Linux fastest");

  bench::World world;
  namespace a = topology::ases;
  const auto* creds = world.net.pki(71)->credentials(a::ovgu());
  const std::vector<cppki::Trc> trcs{world.net.pki(71)->trc()};
  const BootstrapServer server{
      a::ovgu(), local_topology_view(world.net.topology(), a::ovgu()), *creds,
      trcs};

  // All hinting environments of Appendix A, exercised per OS.
  NetworkEnvironment env;
  env.dhcpv6_leases = true;
  env.dhcpv6_hint_configured = true;
  env.ipv6_ras = true;
  env.mdns_responder_present = true;

  constexpr int kRunsPerMechanism = 30;
  std::vector<analysis::BoxGroup> groups;
  std::vector<double> all_totals;
  double windows_median = 0, linux_median = 0;

  for (const char* step : {"Hint retrieval", "Config retrieval", "Total"}) {
    analysis::BoxGroup group;
    group.group = step;
    for (const OsProfile& os : all_os_profiles()) {
      std::vector<double> samples;
      Rng rng{2025, os.name};
      for (HintMechanism mechanism : all_hint_mechanisms()) {
        if (!mechanism_available(mechanism, env)) continue;
        Bootstrapper::Config config;
        config.preference = {mechanism};
        Bootstrapper bootstrapper{env, os, config};
        for (int run = 0; run < kRunsPerMechanism; ++run) {
          auto result = bootstrapper.run(server, rng, 0);
          if (!result) continue;
          const auto& t = result->timings;
          const Duration value = std::string{step} == "Hint retrieval"
                                     ? t.hint_retrieval
                                 : std::string{step} == "Config retrieval"
                                     ? t.config_retrieval
                                     : t.total();
          samples.push_back(to_ms(value));
        }
      }
      analysis::Cdf cdf{samples};
      if (std::string{step} == "Total") {
        for (double s : samples) all_totals.push_back(s);
        if (os.name == "Windows") windows_median = cdf.median();
        if (os.name == "Linux") linux_median = cdf.median();
      }
      group.boxes.emplace_back(os.name, std::move(cdf));
    }
    groups.push_back(std::move(group));
  }

  std::printf("%s\n", analysis::render_boxes(groups, "ms").c_str());

  const analysis::Cdf totals{all_totals};
  std::printf("pooled total: median %.1f ms, p90 %.1f ms, max %.1f ms\n\n",
              totals.median(), totals.percentile(0.9), totals.max());

  bench::print_check(totals.median() < 150.0,
                     "median total bootstrap < 150 ms (imperceptible)");
  bench::print_check(groups[0].boxes[1].second.median() <
                         groups[1].boxes[1].second.median() + 50.0,
                     "hint and config steps are both sub-perceptible");
  bench::print_check(windows_median > linux_median,
                     "Windows slower than Linux (service indirection)");
  return bench::exit_code();
}
