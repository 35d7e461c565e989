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
  sim_.trace(obs::TraceType::kChaosInject, trace_subject_,
             available ? obs::TraceDetail::kServiceUp
                       : obs::TraceDetail::kServiceOutage);
}

PathSet ControlService::lookup_paths_now(IsdAs dst) {
  lookups_total_->inc();
  if (!available_) {
    lookups_dropped_->inc();
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
