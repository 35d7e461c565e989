// scion-go-multiping (Section 5.4): from each vantage AS, every interval,
// SCMP pings over three SCION paths — the shortest, the fastest, and the
// most disjoint — in parallel with ICMP pings over the BGP path. A full
// path probe refreshes the per-path RTTs and reselects the three paths
// every few intervals and after failures (Campaign::reselect). Pings are
// sampled analytically from per-path RTT distributions (propagation +
// log-normal jitter), which keeps 20-day campaigns tractable while
// preserving the distributions the figures aggregate.
#pragma once

#include <optional>

#include "bgp/bgp.h"
#include "controlplane/control_plane.h"

namespace sciera::measure {

enum class PathChoice : std::uint8_t { kShortest, kFastest, kMostDisjoint };

[[nodiscard]] const char* path_choice_name(PathChoice choice);

// One ping RTT sample: static propagation plus multiplicative log-normal
// jitter that grows with hop count.
[[nodiscard]] Duration sample_rtt(Duration base, std::size_t hops,
                                  double jitter_sigma, Rng& rng);

// The smallest of `samples` sample_rtt() pings, each lost first with
// probability `loss`; nullopt if all are lost. Same draws and value as that
// loop, but one exp(): the RTT is monotone in its normal draw.
[[nodiscard]] std::optional<Duration> sample_min_rtt(
    Duration base, std::size_t hops, double jitter_sigma, int samples,
    double loss, Rng& rng);

// One row per interval and AS pair: its pings and its path probe.
struct IntervalRecord {
  SimTime start = 0;
  IsdAs src;
  IsdAs dst;
  // SCION side.
  int scion_sent = 0;
  int scion_ok = 0;
  std::optional<Duration> scion_min_rtt;
  PathChoice scion_best = PathChoice::kShortest;
  // IP side.
  int ip_sent = 0;
  int ip_ok = 0;
  // Path probe: SCION paths with every link up (fills ip_ok's padding).
  std::uint32_t active_paths = 0;
  std::optional<Duration> ip_min_rtt;
};
static_assert(sizeof(IntervalRecord) == 96);

}  // namespace sciera::measure
