#include "measure/campaign.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "topology/sciera_net.h"

namespace sciera::measure {
namespace {

constexpr int kPingsPerInterval = 60;  // 1/s in the paper
// Multiplicative log-normal jitter of one ping sample.
constexpr double kScionJitterSigma = 0.02;
constexpr double kIpJitterSigma = 0.02;
// IP congestion (Section 4.3.1: SCION gets reserved bandwidth, IP shares
// with commodity traffic): a per-interval multiplicative queueing factor
// of 1 + Exp(mean), with occasional heavy spikes.
// Congestion is heterogeneous across IP routes: a minority of commodity
// paths are chronically congested (under-provisioned transits), the rest
// are clean. This is what produces the paper's Figure 5/6 combination —
// most pair means comparable, but a fat IP tail that SCION avoids.
constexpr double kIpCongestedFraction = 0.42;
constexpr double kIpCongestionMean = 0.22;        // congested pairs
constexpr double kIpSpikeProbability = 0.50;      // congested pairs
constexpr double kIpCleanCongestionMean = 0.015;  // clean pairs
constexpr double kIpCleanSpikeProbability = 0.02;
// The commodity Internet offers direct commercial routes that SCIERA's
// L2 footprint does not: the ICMP baseline uses the better of the
// BGP-over-SCIERA-links route and a direct commercial route. Those
// commercial routes are also unaffected by SCIERA incidents (the paper's
// "corresponding IP paths exhibit relatively low RTTs" during BRIDGES
// instability). Commercial routing quality is heterogeneous: most pairs
// get near-direct routes, but routes to remote R&E sites often detour
// badly (the IP tail SCION's path choice avoids).
constexpr double kCommodityRouteStretch = 1.75;     // well-routed pairs
constexpr double kCommodityBadRouteStretch = 3.1;   // badly-routed pairs
constexpr double kCommodityBadRouteFraction = 0.38;
constexpr double kPingLoss = 0.002;
// Paths considered by the prober per pair (multiping probes a bounded
// set; combination still sees every path for the path-count figures).
constexpr std::size_t kProbeTopPaths = 40;
// Reselect the three paths at least this often, in intervals (plus on
// any failure).
constexpr int kReselectEvery = 6;
// Pair::selected's order.
constexpr PathChoice kChoices[3] = {PathChoice::kShortest,
                                    PathChoice::kFastest,
                                    PathChoice::kMostDisjoint};

// Links in both of two equally sized link masks.
std::size_t shared_links(const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b) {
  std::size_t shared = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    shared += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return shared;
}

}  // namespace

Campaign::Campaign(controlplane::ScionNetwork& net, bgp::BgpNetwork& bgp,
                   CampaignOptions options)
    : net_(net),
      bgp_(bgp),
      options_(options),
      trace_subject_(net.sim().recorder().intern("campaign")) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"campaign", registry.instance_label("campaign", "multiping")}};
  metrics_.intervals = &registry.counter("sciera_campaign_intervals_total", base);
  metrics_.link_events =
      &registry.counter("sciera_campaign_link_events_total", base);
  metrics_.reselections =
      &registry.counter("sciera_campaign_reselections_total", base);
  const auto probes = [&](const char* proto) {
    obs::Labels labels = base;
    labels.emplace_back("proto", proto);
    return &registry.counter("sciera_campaign_probes_total", labels);
  };
  metrics_.scion_probes = probes("scion");
  metrics_.ip_probes = probes("ip");
  const std::vector<std::int64_t> ms_bounds{25,  50,  75,  100, 150,
                                            200, 300, 500, 800};
  const auto rtt = [&](const char* proto) {
    obs::Labels labels = base;
    labels.emplace_back("proto", proto);
    return &registry.histogram("sciera_campaign_min_rtt_ms", ms_bounds, labels);
  };
  metrics_.scion_rtt_ms = rtt("scion");
  metrics_.ip_rtt_ms = rtt("ip");
  incidents_ = paper_incidents();
  sources_ = topology::measurement_ases();
  // Targets: every SCIERA participant — "note that we also send ping
  // messages to ASes where the tool is not deployed" (Section 5.4).
  for (const auto& as_info : net_.topology().ases()) {
    targets_.push_back(as_info.ia);
  }
}

std::vector<Incident> Campaign::paper_incidents() {
  using Scope = Incident::Scope;
  std::vector<Incident> incidents;
  auto day = [](double d) { return static_cast<SimTime>(d * kDay); };

  // New EU<->US circuits become available early in the campaign: the links
  // exist in the topology but only come up then (Figure 7's stabilizer;
  // keeping the downtime short also keeps the Figure 9 medians at the
  // maximum for unaffected pairs).
  incidents.push_back({"new-eu-us-links",
                       {"geant-bridges-2", "kisti-ams-bridges"},
                       day(0.5), day(1000), Scope::kLinkComesUp});

  // January 21 (day 4): maintenance affecting several backbone links ->
  // longer paths get selected network-wide (the first Figure 7 spike).
  incidents.push_back({"jan21-maintenance-atlantic",
                       {"geant-bridges", "geant-bridges-2"},
                       day(4.15), day(4.55), Scope::kScionOnly});
  incidents.push_back({"jan21-maintenance-sgams",
                       {"kreonet-sg-ams", "cae1-sg-ams", "geant-kisti-ams"},
                       day(4.3), day(4.75), Scope::kScionOnly});
  // Days 5-7: follow-up maintenance and changes (ratio fluctuation).
  incidents.push_back({"maintenance-geant-sg", {"geant-kisti-sg"},
                       day(5.2), day(5.45), Scope::kScionOnly});
  incidents.push_back({"maintenance-chg", {"bridges-kisti-chg"},
                       day(6.3), day(6.55), Scope::kScionOnly});
  incidents.push_back({"maintenance-switch", {"switch71-switch64"},
                       day(7.1), day(7.25), Scope::kScionOnly});

  // KREONET: the direct link between two core ASes was unavailable for a
  // while, routing traffic around the globe (Figures 6 and 9).
  incidents.push_back({"kreonet-dj-hk-outage", {"kreonet-dj-hk"},
                       day(8.5), day(18.8), Scope::kBoth});

  // BRIDGES instabilities throughout the period (UVa/Princeton/Equinix
  // outliers in Figure 6, UVa<->Equinix deviation in Figure 9).
  incidents.push_back({"bridges-flap-1", {"bridges-equinix"},
                       day(2.0), day(2.4), Scope::kScionOnly});
  incidents.push_back({"bridges-flap-2", {"bridges-uva", "bridges-equinix"},
                       day(7.1), day(7.9), Scope::kScionOnly});
  incidents.push_back({"bridges-flap-3", {"bridges-equinix"},
                       day(12.3), day(13.2), Scope::kScionOnly});
  incidents.push_back({"bridges-flap-4", {"bridges-uva"},
                       day(15.6), day(16.1), Scope::kScionOnly});
  incidents.push_back({"bridges-flap-5", {"bridges-equinix"},
                       day(17.2), day(18.9), Scope::kScionOnly});
  // One of UVa's two BRIDGES uplinks stayed broken for most of the period
  // (the UVa<->Equinix median deviation of Figure 9).
  incidents.push_back({"bridges-uva-vlan-degraded", {"bridges-uva-2"},
                       day(0.6), day(8.2), Scope::kScionOnly});

  // UFMS <-> Equinix: no SCION VLAN on the RNP<->BRIDGES segment for most
  // of the campaign; SCION detours through GEANT while IP goes direct
  // (the Figure 6 outlier annotation). The Internet2 multipoint VLAN that
  // fixes it lands late in the period (Appendix C).
  incidents.push_back({"ufms-equinix-via-geant", {"bridges-rnp"},
                       day(0), day(8.4), Scope::kScionOnly});

  // February 6 (day 20): node upgrades and link maintenance (final spike).
  incidents.push_back({"feb6-upgrades",
                       {"kreonet-ams-chg", "geant-kisti-ams", "geant-bridges",
                        "kreonet-sg-ams"},
                       day(19.65), day(19.95), Scope::kScionOnly});
  return incidents;
}

void Campaign::drop_unknown_inputs() {
  const topology::Topology& topo = net_.topology();
  for (Incident& incident : incidents_) {
    std::erase_if(incident.links, [&](const std::string& label) {
      const bool known = topo.find_link_by_label(label) != nullptr;
      SCIERA_CHECK(known, "measure.campaign_unknown_link");
      return !known;
    });
  }
  const auto unknown_as = [&](IsdAs ia) {
    const bool known = topo.find_as(ia) != nullptr;
    SCIERA_CHECK(known, "measure.campaign_unknown_as");
    return !known;
  };
  std::erase_if(sources_, unknown_as);
  std::erase_if(targets_, unknown_as);
}

void Campaign::apply_link_event(topology::LinkId id, int scion_delta,
                                int ip_delta) {
  const bool scion_was_up = scion_outages_[id] == 0;
  scion_outages_[id] += scion_delta;
  const bool scion_up = scion_outages_[id] == 0;
  if (scion_up != scion_was_up) {
    down_links_[id / 64] ^= std::uint64_t{1} << (id % 64);
    net_.link(id)->set_up(scion_up);  // data plane follows
    ++link_epoch_;
    metrics_.link_events->inc();
  }
  ip_outages_[id] += ip_delta;
  const bool ip_up = ip_outages_[id] == 0;
  if (bgp_.link_up(id) != ip_up) {
    bgp_.set_link_up(id, ip_up);
    ++bgp_epoch_;
  }
}

void Campaign::refresh_usable(Pair& pair) {
  pair.usable.clear();
  for (std::size_t i = 0; i < pair.meta.size(); ++i) {
    if (shared_links(pair.meta[i].link_mask, down_links_) == 0) {
      pair.usable.push_back(i);
    }
  }
  pair.usable_epoch = link_epoch_;
  pair.selection_valid = false;
}

void Campaign::reselect(Pair& pair, Rng& rng) {
  if (pair.usable.empty()) {
    pair.selection_valid = false;
    return;
  }
  // Shortest: fewest hops, lowest fingerprint (paths are pre-sorted by
  // hops/rtt/fingerprint, so the first usable, k = 0, is the shortest).
  // Full path probe of the probed set; fastest: lowest probed RTT.
  const std::size_t considered =
      std::min(pair.usable.size(), kProbeTopPaths);
  pings_.clear();
  for (std::size_t k = 0; k < considered; ++k) {
    const PathMeta& meta = pair.meta[pair.usable[k]];
    pings_.probe(ping_path(meta.static_rtt, meta.sigma), rng);
  }
  const std::size_t fastest = pings_.least()->path;
  // Most disjoint from shortest+fastest. A path lists both interfaces of
  // each link it crosses, so shared links rank as shared interfaces do.
  const auto& ref_a = pair.meta[pair.usable[0]].link_mask;
  const auto& ref_b = pair.meta[pair.usable[fastest]].link_mask;
  std::size_t disjoint = 0;
  std::size_t best_shared = SIZE_MAX;
  for (std::size_t k = 0; k < considered; ++k) {
    const std::size_t i = pair.usable[k];
    const std::size_t shared = shared_links(pair.meta[i].link_mask, ref_a) +
                               shared_links(pair.meta[i].link_mask, ref_b);
    if (shared < best_shared) {
      best_shared = shared;
      disjoint = k;
    }
  }
  pair.selected = {pings_.path(0), pings_.path(fastest),
                   pings_.path(disjoint)};
  pair.selection_valid = true;
  metrics_.reselections->inc();
}

void Campaign::refresh_ip_route(Pair& pair) {
  const auto bgp_rtt = bgp_.rtt(pair.src, pair.dst);
  pair.ip_base = pair.commodity_rtt;
  std::size_t hops = 4;
  if (bgp_rtt && *bgp_rtt < pair.ip_base) {
    pair.ip_base = *bgp_rtt;
    hops = bgp_.route(pair.src, pair.dst)->as_path.size();
  }
  pair.ip_sigma = ping_sigma(hops, kIpJitterSigma);
  pair.ip_epoch = bgp_epoch_;
}

CampaignResult Campaign::run() {
  const bool interval_ok = options_.interval > 0;
  SCIERA_CHECK(interval_ok, "measure.campaign_bad_interval");
  if (!interval_ok) return {};
  drop_unknown_inputs();
  Rng rng{options_.seed, "campaign"};

  const std::size_t link_count = net_.topology().links().size();
  const std::size_t mask_words = (link_count + 63) / 64;
  scion_outages_.assign(link_count, 0);
  ip_outages_.assign(link_count, 0);
  down_links_.assign(mask_words, 0);

  // drop_unknown_inputs() left only known links.
  const auto link_id = [&](const std::string& label) {
    return net_.topology().find_link_by_label(label)->id;
  };
  // Links that only come up mid-campaign start down.
  for (const auto& incident : incidents_) {
    if (incident.scope == Incident::Scope::kLinkComesUp) {
      for (const auto& label : incident.links) {
        apply_link_event(link_id(label), 1, 1);
      }
    }
  }

  // Precompute path sets per ordered pair.
  std::vector<Pair> pairs;
  std::vector<PairPaths> pair_paths;
  pairs.reserve(sources_.size() * targets_.size());
  pair_paths.reserve(sources_.size() * targets_.size());
  for (IsdAs src : sources_) {
    for (IsdAs dst : targets_) {
      if (src == dst) continue;
      PairPaths pp;
      pp.src = src;
      pp.dst = dst;
      pp.paths = net_.paths(src, dst);
      Pair pair;
      pair.src = src;
      pair.dst = dst;
      const auto* src_info = net_.topology().find_as(src);
      const auto* dst_info = net_.topology().find_as(dst);
      // Route and congestion classes are properties of the (unordered)
      // pair: both directions share the same commercial route quality.
      const std::uint64_t lo = std::min(src.packed(), dst.packed());
      const std::uint64_t hi = std::max(src.packed(), dst.packed());
      Rng pair_rng{options_.seed ^ (lo * 0x9E3779B97F4A7C15ULL) ^ hi,
                   "pair-class"};
      const double stretch =
          pair_rng.chance(kCommodityBadRouteFraction)
              ? kCommodityBadRouteStretch
              : kCommodityRouteStretch;
      pair.commodity_rtt =
          2 * topology::fiber_delay(
                  topology::great_circle_km(src_info->location,
                                            dst_info->location),
                  stretch) +
          2 * 600 * kMicrosecond;
      if (pair_rng.chance(kIpCongestedFraction)) {
        pair.ip_congestion_mean = kIpCongestionMean;
        pair.ip_spike_probability = kIpSpikeProbability;
      } else {
        pair.ip_congestion_mean = kIpCleanCongestionMean;
        pair.ip_spike_probability = kIpCleanSpikeProbability;
      }
      for (const auto& path : pp.paths) {
        PathMeta meta;
        meta.static_rtt = path.static_rtt;
        meta.sigma = ping_sigma(path.as_sequence.size(), kScionJitterSigma);
        meta.link_mask.assign(mask_words, 0);
        for (const topology::LinkId id : path.links) {
          meta.link_mask[id / 64] |= std::uint64_t{1} << (id % 64);
        }
        pair.meta.push_back(std::move(meta));
      }
      pairs.push_back(std::move(pair));
      pair_paths.push_back(std::move(pp));
    }
  }

  // Incident event timeline: each incident holds one outage for [from, to),
  // so a link is down until its last overlapping incident ends.
  struct Event {
    SimTime at;
    topology::LinkId link;
    int scion_delta, ip_delta;
  };
  std::vector<Event> events;
  for (const auto& incident : incidents_) {
    for (const auto& label : incident.links) {
      const topology::LinkId link = link_id(label);
      switch (incident.scope) {
        case Incident::Scope::kBoth:
          events.push_back({incident.from, link, 1, 1});
          events.push_back({incident.to, link, -1, -1});
          break;
        case Incident::Scope::kScionOnly:
          events.push_back({incident.from, link, 1, 0});
          events.push_back({incident.to, link, -1, 0});
          break;
        case Incident::Scope::kLinkComesUp:
          events.push_back({incident.from, link, -1, -1});
          break;
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.at < y.at; });

  CampaignResult result;
  result.duration = options_.duration;
  result.interval = options_.interval;
  // Ticks at 0, interval, 2·interval, ... before the duration, counted
  // without stepping past it, so no SimTime overflows.
  const std::int64_t ticks =
      options_.duration > 0 ? (options_.duration - 1) / options_.interval + 1
                            : 0;
  result.intervals.reserve(static_cast<std::size_t>(ticks) * pairs.size());

  std::size_t next_event = 0;
  for (std::int64_t tick = 0; tick < ticks; ++tick) {
    const SimTime now = tick * options_.interval;
    while (next_event < events.size() && events[next_event].at <= now) {
      apply_link_event(events[next_event].link,
                       events[next_event].scion_delta,
                       events[next_event].ip_delta);
      ++next_event;
    }

    // Every pair sends kPingsPerInterval pings each way this tick.
    const std::uint64_t probes = kPingsPerInterval * pairs.size();
    metrics_.intervals->inc(pairs.size());
    metrics_.scion_probes->inc(probes);
    metrics_.ip_probes->inc(probes);

    for (auto& pair : pairs) {
      if (pair.usable_epoch != link_epoch_) refresh_usable(pair);
      const bool reselect_now =
          !pair.selection_valid || tick % kReselectEvery == 0;
      if (reselect_now) reselect(pair, rng);

      IntervalRecord record;
      record.start = now;
      record.src = pair.src;
      record.dst = pair.dst;
      record.scion_sent = kPingsPerInterval;
      record.ip_sent = kPingsPerInterval;
      record.active_paths = static_cast<std::uint32_t>(pair.usable.size());

      if (pair.selection_valid) {
        // All three paths' pings at once: the first path with the least
        // RTT is the one a path-by-path strict < keeps.
        pings_.clear();
        for (const PingPath& path : pair.selected) {
          pings_.ping(path, options_.samples_per_path, kPingLoss, rng);
        }
        if (const auto least = pings_.least()) {
          record.scion_min_rtt = least->rtt;
          record.scion_best = kChoices[least->path];
          record.scion_ok = record.scion_sent;  // losses are per-sample
          metrics_.scion_rtt_ms->observe(
              static_cast<std::int64_t>(to_ms(least->rtt)));
        }
      } else {
        record.scion_ok = 0;
      }

      // The ICMP path. Congestion on the shared IP path persists across an
      // interval, so it lifts even the interval's minimum RTT.
      if (pair.ip_epoch != bgp_epoch_) refresh_ip_route(pair);
      double congestion = 1.0 + rng.exponential(pair.ip_congestion_mean);
      if (rng.chance(pair.ip_spike_probability)) {
        congestion += rng.uniform(0.3, 1.2);
      }
      const auto congested_base = static_cast<Duration>(
          static_cast<double>(pair.ip_base) * congestion);
      pings_.clear();
      pings_.ping(ping_path(congested_base, pair.ip_sigma),
                  options_.samples_per_path, kPingLoss, rng);
      if (const auto least = pings_.least()) {
        record.ip_min_rtt = least->rtt;
        record.ip_ok = record.ip_sent;
        metrics_.ip_rtt_ms->observe(
            static_cast<std::int64_t>(to_ms(least->rtt)));
      }

      result.intervals.push_back(record);
    }

    net_.sim().recorder().record(
        obs::TraceType::kProbeBurst, now, static_cast<std::uint64_t>(tick),
        trace_subject_, obs::TraceDetail::kProbeTick,
        static_cast<std::uint64_t>(tick), pairs.size(),
        static_cast<std::int64_t>(2 * probes));
  }
  result.pair_paths = std::move(pair_paths);

  // Restore link state for subsequent users of the shared networks.
  for (std::size_t id = 0; id < link_count; ++id) {
    if (scion_outages_[id] != 0) {
      net_.link(static_cast<topology::LinkId>(id))->set_up(true);
    }
    if (!bgp_.link_up(static_cast<topology::LinkId>(id))) {
      bgp_.set_link_up(static_cast<topology::LinkId>(id), true);
    }
  }
  return result;
}

std::string CampaignResult::intervals_csv() const {
  std::string out =
      "start_s,src,dst,scion_ok,scion_min_rtt_ms,scion_best,ip_ok,ip_min_rtt_"
      "ms\n";
  for (const auto& record : intervals) {
    out += strformat(
        "%lld,%s,%s,%d,%s,%s,%d,%s\n",
        static_cast<long long>(record.start / kSecond),
        record.src.to_string().c_str(), record.dst.to_string().c_str(),
        record.scion_ok,
        record.scion_min_rtt
            ? strformat("%.3f", to_ms(*record.scion_min_rtt)).c_str()
            : "",
        path_choice_name(record.scion_best), record.ip_ok,
        record.ip_min_rtt ? strformat("%.3f", to_ms(*record.ip_min_rtt)).c_str()
                          : "");
  }
  return out;
}

std::string CampaignResult::probes_csv() const {
  std::string out = "time_s,src,dst,active_paths\n";
  for (const auto& record : intervals) {
    out += strformat("%lld,%s,%s,%u\n",
                     static_cast<long long>(record.start / kSecond),
                     record.src.to_string().c_str(),
                     record.dst.to_string().c_str(), record.active_paths);
  }
  return out;
}

}  // namespace sciera::measure
