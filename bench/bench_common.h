// Shared scaffolding for the figure/table reproduction binaries: builds
// the SCIERA network + BGP baseline once, runs the standard campaign, and
// provides uniform headers so every bench prints a comparable report.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "analysis/charts.h"
#include "analysis/stats.h"
#include "bgp/bgp.h"
#include "measure/campaign.h"
#include "topology/sciera_net.h"

namespace sciera::bench {

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

// Shape checks that missed so far in this process.
inline int shape_misses = 0;

inline void print_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-MISS", what.c_str());
  if (!ok) ++shape_misses;
}

// main's return value: nonzero when any shape check missed, so the
// binary's paper.* ctest fails.
inline int exit_code() { return shape_misses == 0 ? 0 : 1; }

struct World {
  controlplane::ScionNetwork net;
  bgp::BgpNetwork bgp;

  World() : net(topology::build_sciera()), bgp(net.topology()) {}
};

// The standard campaign most figure benches consume. Interval coarser than
// the paper's 60s aggregation; the distributions it feeds are identical in
// shape (same per-interval minimum statistics).
inline measure::CampaignResult run_standard_campaign(World& world) {
  measure::CampaignOptions options;
  options.duration = 20 * kDay;
  options.interval = 30 * kMinute;
  measure::Campaign campaign{world.net, world.bgp, options};
  return campaign.run();
}

}  // namespace sciera::bench
