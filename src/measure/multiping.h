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

// One path's pings: a ping's RTT is trunc(base · exp(z)), z drawn by
// Rng::normal(0, sigma). log_base = ln(base) lets MinRtt bound an RTT
// without evaluating its draw.
struct PingPath {
  Duration base = 0;  // at least 1 ns
  double sigma = 0.0;
  double log_base = 0.0;
};

// The jitter sigma of a path of `hops` AS hops. Jitter accumulates over
// hops (queueing at each router); a square-root law keeps long paths
// from exploding.
[[nodiscard]] double ping_sigma(std::size_t hops, double jitter_sigma);
// The pings of a path with base RTT `base` and jitter `sigma`.
[[nodiscard]] PingPath ping_path(Duration base, double sigma);

// The least ping RTT over a set of draws spread over one or more paths.
// It takes every draw from the stream exactly as a loop that evaluated
// each one would, and returns what that loop keeps: the least RTT and the
// first path that drew it. It evaluates exactly only the draws whose
// bounds say they can be that minimum (DESIGN.md §17). Reuse one MinRtt
// so its scratch is allocated once.
class MinRtt {
 public:
  struct Result {
    Duration rtt = 0;
    std::size_t path = 0;  // the ping()/probe() call that drew it
  };

  // Starts a new set of draws.
  void clear();
  // `samples` pings over `path`, each lost first with probability
  // `loss`: chance(loss), then one normal draw for each ping not lost.
  void ping(const PingPath& path, int samples, double loss, Rng& rng);
  // One ping over `path` that cannot be lost: no loss draw.
  void probe(const PingPath& path, Rng& rng);
  // The path of the i-th ping()/probe() call since clear().
  [[nodiscard]] const PingPath& path(std::size_t i) const {
    return paths_[i];
  }
  // nullopt if every ping since clear() was lost.
  [[nodiscard]] std::optional<Result> least();

 private:
  struct Draw {
    NormalDraw draw;
    std::uint32_t path = 0;
    // Set by least(): the pair's radius and a bound on ln(RTT) from below.
    double radius = 0.0;
    double lower = 0.0;
  };

  std::vector<PingPath> paths_;
  std::vector<Draw> draws_;
  // The radius of the last pair bounded, and its u1 (0: none; a draw's u1
  // is above 1e-300).
  double radius_u1_ = 0.0;
  double radius_ = 0.0;
};

// MinRtt's one-path case: the least of `samples` pings over a path of
// `hops` AS hops, each lost first with probability `loss`; nullopt if all
// are lost.
[[nodiscard]] std::optional<Duration> sample_min_rtt(
    Duration base, std::size_t hops, double jitter_sigma, int samples,
    double loss, Rng& rng);

namespace detail {
// Within kSinCosBound of cos(2πu), or of sin(2πu) when `sine`, as
// normal() evaluates them, for u in [0, 1). Branch-free.
[[nodiscard]] double cos_2pi(double u, bool sine);
inline constexpr double kSinCosBound = 2e-10;
}  // namespace detail

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
