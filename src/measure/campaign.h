// The 20-day measurement campaign of Section 5.4: scion-go-multiping on
// 11 vantage ASes, pings to all SCIERA participants every interval over
// three SCION paths plus ICMP over BGP, full path probes, and the
// incident schedule the paper reports (maintenance on Jan 21, new EU-US
// links on Jan 25, the KREONET link outage, BRIDGES instability, and the
// UFMS->Equinix SCION detour through GEANT).
//
// Jitter asymmetry is paper-grounded: SCIERA reserves dedicated bandwidth
// for SCION on shared links (Section 4.3.1), so ICMP-over-IP samples see
// more queueing variance than SCMP-over-SCION samples.
#pragma once

#include <array>

#include "measure/multiping.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sciera::measure {

struct Incident {
  enum class Scope : std::uint8_t {
    kBoth,       // physical failure: SCION and IP both lose the link
    kScionOnly,  // no SCION VLAN on the segment (IP unaffected)
    kLinkComesUp  // link was absent before `from` (e.g. new circuits)
  };

  std::string label;
  std::vector<std::string> links;
  SimTime from = 0;
  SimTime to = 0;
  Scope scope = Scope::kBoth;
};

struct CampaignOptions {
  Duration duration = 20 * kDay;
  Duration interval = 10 * kMinute;  // aggregation granularity
  int samples_per_path = 6;          // Monte-Carlo draws per path/interval
  std::uint64_t seed = 20250117;
};

struct PairPaths {
  IsdAs src;
  IsdAs dst;
  std::vector<controlplane::Path> paths;
};

struct CampaignResult {
  std::vector<IntervalRecord> intervals;
  std::vector<PairPaths> pair_paths;
  Duration duration = 0;
  Duration interval = 0;

  // CSV exports matching the public dataset layout.
  [[nodiscard]] std::string intervals_csv() const;
  [[nodiscard]] std::string probes_csv() const;
};

class Campaign {
 public:
  Campaign(controlplane::ScionNetwork& net, bgp::BgpNetwork& bgp,
           CampaignOptions options);
  Campaign(controlplane::ScionNetwork& net, bgp::BgpNetwork& bgp)
      : Campaign(net, bgp, CampaignOptions{}) {}

  // The Section 5.4 incident schedule, expressed against the SCIERA
  // topology (campaign day 0 = January 17).
  [[nodiscard]] static std::vector<Incident> paper_incidents();

  void set_incidents(std::vector<Incident> incidents) {
    incidents_ = std::move(incidents);
  }
  // Vantage/target ASes; defaults to the paper's 11 vantages pinging the
  // measured participant set.
  void set_sources(std::vector<IsdAs> sources) { sources_ = std::move(sources); }
  void set_targets(std::vector<IsdAs> targets) { targets_ = std::move(targets); }

  // Every incident link, source and target must be in the topology: each
  // that is not fails a check (measure.campaign_unknown_link or
  // measure.campaign_unknown_as) and, in kCount mode, is left out. A
  // non-positive interval fails measure.campaign_bad_interval and, in
  // kCount mode, yields an empty result.
  [[nodiscard]] CampaignResult run();

 private:
  struct PathMeta {
    Duration static_rtt = 0;
    double sigma = 0.0;  // ping jitter, from its AS hop count
    std::vector<std::uint64_t> link_mask;  // one bit per LinkId crossed
  };
  struct Pair {
    IsdAs src;
    IsdAs dst;
    Duration commodity_rtt = 0;  // direct commercial-Internet route
    double ip_congestion_mean = 0.0;
    double ip_spike_probability = 0.0;
    std::vector<PathMeta> meta;          // aligned with paths
    std::vector<std::size_t> usable;     // indices, refreshed per epoch
    std::uint64_t usable_epoch = ~0ull;
    // The shortest, fastest and most disjoint path (PathChoice order).
    std::array<PingPath, 3> selected{};
    bool selection_valid = false;
    // The ICMP route's base RTT and jitter sigma, as of BGP epoch ip_epoch.
    Duration ip_base = 0;
    double ip_sigma = 0.0;
    std::uint64_t ip_epoch = ~0ull;
  };

  // run()'s input check: an unknown link would never fail, and an
  // unknown AS has no location to price its commercial route from.
  void drop_unknown_inputs();
  void apply_link_event(topology::LinkId id, int scion_delta, int ip_delta);
  void refresh_usable(Pair& pair);
  void reselect(Pair& pair, Rng& rng);
  // The better of BGP-over-SCIERA-links and the direct commercial route
  // (which SCIERA incidents cannot touch), kept until bgp_epoch_ moves.
  void refresh_ip_route(Pair& pair);

  struct Metrics {
    obs::Counter* intervals = nullptr;
    obs::Counter* link_events = nullptr;
    obs::Counter* reselections = nullptr;
    obs::Counter* scion_probes = nullptr;
    obs::Counter* ip_probes = nullptr;
    obs::Histogram* scion_rtt_ms = nullptr;
    obs::Histogram* ip_rtt_ms = nullptr;
  };

  controlplane::ScionNetwork& net_;
  bgp::BgpNetwork& bgp_;
  CampaignOptions options_;
  std::vector<Incident> incidents_;
  std::vector<IsdAs> sources_;
  std::vector<IsdAs> targets_;
  // Outages holding each link down; a link is up while its count is 0.
  std::vector<int> scion_outages_;
  std::vector<int> ip_outages_;
  std::vector<std::uint64_t> down_links_;  // SCION-down, one bit per LinkId
  std::uint64_t link_epoch_ = 0;
  std::uint64_t bgp_epoch_ = 0;  // bumped when an IP link changes state
  MinRtt pings_;                 // scratch for every minimum RTT
  Metrics metrics_;
  // "campaign", interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
};

}  // namespace sciera::measure
