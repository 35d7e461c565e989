#include "controlplane/path_server.h"

#include "obs/flight_recorder.h"

namespace sciera::controlplane {

ControlService::ControlService(simnet::Simulator& sim, IsdAs ia,
                               const topology::Topology& topo,
                               const SegmentStore& store,
                               const cppki::Trc* local_trc, Config config,
                               const std::string& instance_name)
    : sim_(sim),
      ia_(ia),
      topo_(topo),
      combinator_(topo, store),
      trc_(local_trc),
      config_(config) {
  auto& registry = obs::MetricsRegistry::global();
  const std::string& name =
      instance_name.empty() ? ia.to_string() : instance_name;
  const obs::Labels base{
      {"service", registry.instance_label("control_service", name)}};
  const auto cache = [&](const char* result) {
    obs::Labels labels = base;
    labels.emplace_back("result", result);
    return &registry.counter("sciera_control_service_cache_total", labels);
  };
  cache_hits_ = cache("hit");
  cache_misses_ = cache("miss");
  lookups_dropped_ =
      &registry.counter("sciera_control_service_lookups_dropped_total", base);
  lookups_total_ =
      &registry.counter("sciera_control_service_lookups_total", base);
  available_gauge_ =
      &registry.gauge("sciera_control_service_available", base);
  available_gauge_->set(1);
}

void ControlService::set_available(bool available) {
  if (available == available_) return;
  available_ = available;
  available_gauge_->set(available ? 1 : 0);
  obs::FlightRecorder::global().record(
      obs::TraceType::kChaosInject, sim_.now(), sim_.executed_events(),
      "cs-" + ia_.to_string(), available ? "service up" : "service outage");
}

Duration ControlService::cold_lookup_latency(IsdAs dst) const {
  // Local path server asks a core path server in its ISD, which may ask a
  // core path server in the destination ISD. Approximate each round trip
  // with the fastest core distance from this AS / between the ISDs.
  Duration budget = config_.processing;
  // Reaching the local core: one representative intra-ISD round trip.
  Duration to_core = 20 * kMillisecond;
  for (topology::LinkId id : topo_.links_of(ia_)) {
    const auto* link = topo_.find_link(id);
    to_core = std::min(to_core, 2 * link->delay);
  }
  budget += to_core;
  if (dst.isd() != ia_.isd()) {
    // Cross-ISD recursion: add a representative inter-core round trip.
    budget += 2 * 30 * kMillisecond;
  }
  return budget;
}

void ControlService::lookup_paths(
    IsdAs dst, std::function<void(const PathSet&)> callback) {
  lookups_total_->inc();
  if (!available_) {
    // The request reaches a dead service and is lost; the caller's
    // timeout (if any) is its only signal.
    lookups_dropped_->inc();
    obs::FlightRecorder::global().record(
        obs::TraceType::kPathLookup, sim_.now(), sim_.executed_events(),
        "cs-" + ia_.to_string(), dst.to_string() + " dropped");
    return;
  }
  const auto it = cache_.find(dst);
  const bool cached =
      it != cache_.end() &&
      sim_.now() - it->second.fetched_at < config_.cache_ttl;
  Duration latency = config_.intra_as_rtt + config_.processing;
  if (!cached) latency += cold_lookup_latency(dst);
  latency = static_cast<Duration>(static_cast<double>(latency) * slowdown_);
  sim_.schedule_after(latency, [this, dst, callback = std::move(callback)] {
    // The service may have gone down while the answer was in flight; a
    // dead service answers nothing.
    if (!available_) {
      lookups_dropped_->inc();
      return;
    }
    callback(lookup_paths_now(dst));
  });
}

PathSet ControlService::lookup_paths_now(IsdAs dst) {
  lookups_total_->inc();
  if (!available_) {
    lookups_dropped_->inc();
    obs::FlightRecorder::global().record(
        obs::TraceType::kPathLookup, sim_.now(), sim_.executed_events(),
        "cs-" + ia_.to_string(), dst.to_string() + " dropped");
    return no_paths();
  }
  auto it = cache_.find(dst);
  // Fresh iff age < ttl: an entry aged exactly cache_ttl is stale (the
  // same boundary convention the daemon uses).
  const bool hit = it != cache_.end() &&
                   sim_.now() - it->second.fetched_at < config_.cache_ttl;
  obs::FlightRecorder::global().record(
      obs::TraceType::kPathLookup, sim_.now(), sim_.executed_events(),
      "cs-" + ia_.to_string(), dst.to_string() + (hit ? " hit" : " miss"));
  if (hit) {
    cache_hits_->inc();
    return it->second.paths;
  }
  cache_misses_->inc();
  CacheEntry entry;
  entry.paths =
      std::make_shared<const std::vector<Path>>(combinator_.combine(ia_, dst));
  entry.fetched_at = sim_.now();
  auto [pos, _] = cache_.insert_or_assign(dst, std::move(entry));
  return pos->second.paths;
}

}  // namespace sciera::controlplane
