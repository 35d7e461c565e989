#include "controlplane/path_server.h"

namespace sciera::controlplane {

ControlService::ControlService(simnet::Simulator& sim, IsdAs ia,
                               const topology::Topology& topo,
                               const SegmentStore& store,
                               const cppki::Trc* local_trc,
                               const std::string& instance_name)
    : sim_(sim),
      ia_(ia),
      combinator_(topo, store),
      trc_(local_trc),
      trace_subject_(sim.recorder().intern("cs-" + ia.to_string())) {
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
  metrics_.cache_hits = cache("hit");
  metrics_.cache_misses = cache("miss");
  metrics_.lookups_dropped =
      &registry.counter("sciera_control_service_lookups_dropped_total", base);
  metrics_.lookups_total =
      &registry.counter("sciera_control_service_lookups_total", base);
  metrics_.available =
      &registry.gauge("sciera_control_service_available", base);
  metrics_.available->set(1);
}

void ControlService::set_available(bool available) {
  if (available == available_) return;
  available_ = available;
  metrics_.available->set(available ? 1 : 0);
  sim_.trace(obs::TraceType::kChaosInject, trace_subject_,
             available ? obs::TraceDetail::kServiceUp
                       : obs::TraceDetail::kServiceOutage);
}

PathSet ControlService::lookup_paths_now(IsdAs dst) {
  metrics_.lookups_total->inc();
  if (!available_) {
    metrics_.lookups_dropped->inc();
    sim_.trace(obs::TraceType::kPathLookup, trace_subject_,
               obs::TraceDetail::kLookupDropped, dst.packed());
    return no_paths();
  }
  auto it = cache_.find(dst);
  // Fresh iff age < ttl: an entry aged exactly kCacheTtl is stale (the
  // same boundary convention the daemon uses).
  const bool hit = it != cache_.end() &&
                   sim_.now() - it->second.fetched_at < kCacheTtl;
  sim_.trace(
      obs::TraceType::kPathLookup, trace_subject_,
      hit ? obs::TraceDetail::kLookupHit : obs::TraceDetail::kLookupMiss,
      dst.packed());
  if (hit) {
    metrics_.cache_hits->inc();
    return it->second.paths;
  }
  metrics_.cache_misses->inc();
  CacheEntry entry;
  entry.paths =
      std::make_shared<const std::vector<Path>>(combinator_.combine(ia_, dst));
  entry.fetched_at = sim_.now();
  auto [pos, _] = cache_.insert_or_assign(dst, std::move(entry));
  return pos->second.paths;
}

}  // namespace sciera::controlplane
