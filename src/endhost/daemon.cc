#include "endhost/daemon.h"

#include <utility>

namespace sciera::endhost {

Daemon::Daemon(controlplane::ScionNetwork& net, IsdAs ia, Config config)
    : net_(net), ia_(ia), config_(config),
      services_(net.control_service_set(ia)),
      subject_(net.sim().recorder().intern("daemon-" + ia.to_string())) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"daemon", registry.instance_label("daemon", ia.to_string())}};
  metrics_.lookups = &registry.counter("sciera_daemon_lookups_total", base);
  const auto cache = [&](const char* result) {
    obs::Labels labels = base;
    labels.emplace_back("result", result);
    return &registry.counter("sciera_daemon_cache_total", labels);
  };
  metrics_.cache_hits = cache("hit");
  metrics_.cache_misses = cache("miss");
  const auto degraded = [&](const char* result) {
    obs::Labels labels = base;
    labels.emplace_back("result", result);
    return &registry.counter("sciera_daemon_degraded_total", labels);
  };
  metrics_.stale_served = degraded("stale");
  metrics_.degraded_empty = degraded("empty");
  // Registered, never counted: every lookup is synchronous, so nothing
  // times out or retries. BENCHMARK.json still declares
  // endhost.lookup_timeouts and endhost.lookup_retries, which the
  // benchmark reads from these two families; they go when a benchmark
  // change retires those metrics.
  (void)registry.counter("sciera_daemon_lookup_timeouts_total", base);
  (void)registry.counter("sciera_daemon_lookup_retries_total", base);
  metrics_.breaker_trips =
      &registry.counter("sciera_daemon_breaker_trips_total", base);
  metrics_.quarantined = &registry.gauge("sciera_daemon_quarantined", base);
}

void Daemon::prune_quarantine() {
  const SimTime now = net_.sim().now();
  std::erase_if(down_until_,
                [now](const auto& entry) { return now >= entry.second; });
  metrics_.quarantined->set(static_cast<std::int64_t>(down_until_.size()));
}

std::size_t Daemon::replica_count() const {
  if (services_ == nullptr) return 0;
  return config_.resilience.enabled ? services_->size() : 1;
}

CircuitBreaker& Daemon::breaker_for(IsdAs dst, std::size_t replica) {
  auto it = breakers_.find(dst);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(dst, std::vector<CircuitBreaker>(replica_count()))
             .first;
  }
  return it->second[replica];
}

void Daemon::record_fetch_failure(IsdAs dst, std::size_t replica) {
  if (!config_.resilience.enabled) return;
  CircuitBreaker& breaker = breaker_for(dst, replica);
  const std::uint64_t opened_before = breaker.times_opened();
  breaker.record_failure(net_.sim().now());
  if (breaker.times_opened() > opened_before) metrics_.breaker_trips->inc();
}

Daemon::Answer Daemon::degraded(IsdAs dst) {
  const auto it = cache_.find(dst);
  bool have_stale = it != cache_.end() && !it->second.paths->empty();
  // Age cap: an entry aged >= max_stale_age is too old to trust — the
  // honest answer at that point is kUnavailable, not ancient paths.
  const Duration max_age = config_.resilience.max_stale_age;
  if (have_stale && max_age > 0 &&
      net_.sim().now() - it->second.fetched_at >= max_age) {
    have_stale = false;
  }
  const bool serve_stale = config_.resilience.enabled && have_stale;
  if (serve_stale) {
    metrics_.stale_served->inc();
    if (first_stale_at_ < 0) first_stale_at_ = net_.sim().now();
    last_stale_at_ = net_.sim().now();
  } else {
    metrics_.degraded_empty->inc();
  }
  net_.sim().trace(obs::TraceType::kLookupDegraded, subject_,
                   serve_stale ? obs::TraceDetail::kLookupStale
                               : obs::TraceDetail::kLookupEmpty,
                   dst.packed());
  if (serve_stale) return Answer{it->second.paths, PathSource::kStaleCache};
  return Answer{controlplane::no_paths(), PathSource::kUnavailable};
}

std::vector<controlplane::Path> Daemon::paths(IsdAs dst) {
  return paths_detailed(dst).paths;
}

PathLookup Daemon::paths_detailed(IsdAs dst) {
  const Answer found = answer(dst);
  std::vector<controlplane::Path> live = *found.paths;
  std::erase_if(live, [this](const controlplane::Path& path) {
    return !path_alive(path);
  });
  return PathLookup{std::move(live), found.source,
                    found.source == PathSource::kStaleCache};
}

controlplane::PathSet Daemon::path_set(IsdAs dst) {
  return answer(dst).paths;
}

Daemon::Answer Daemon::answer(IsdAs dst) {
  prune_quarantine();
  metrics_.lookups->inc();
  const SimTime now = net_.sim().now();
  const auto cached = cache_.find(dst);
  // Fresh iff age < ttl: an entry aged exactly path_cache_ttl is stale.
  const bool hit = cached != cache_.end() &&
                   now - cached->second.fetched_at < config_.path_cache_ttl;
  net_.sim().trace(
      obs::TraceType::kPathLookup, subject_,
      hit ? obs::TraceDetail::kLookupHit : obs::TraceDetail::kLookupMiss,
      dst.packed());
  if (hit) {
    metrics_.cache_hits->inc();
    return Answer{cached->second.paths, PathSource::kFreshCache};
  }
  metrics_.cache_misses->inc();
  // Replica failover in deterministic index order: skip replicas whose
  // breaker is open (fail fast, no failure charged), charge a failure to
  // a dead replica and move on, fetch from the first live one. A failed
  // fetch is never cached and never overwrites a stale entry.
  for (std::size_t r = 0; r < replica_count(); ++r) {
    if (config_.resilience.enabled && !breaker_for(dst, r).allow(now)) {
      continue;
    }
    controlplane::ControlService* replica = services_->replica(r);
    if (!replica->available()) {
      record_fetch_failure(dst, r);
      continue;
    }
    CacheEntry entry;
    entry.paths = replica->lookup_paths_now(dst);
    entry.fetched_at = now;
    if (config_.resilience.enabled) breaker_for(dst, r).record_success();
    const auto it = cache_.insert_or_assign(dst, std::move(entry)).first;
    return Answer{it->second.paths, PathSource::kFetched};
  }
  return degraded(dst);
}

const cppki::Trc* Daemon::trc(Isd isd) const {
  auto* pki = net_.pki(isd);
  return pki == nullptr ? nullptr : &pki->trc();
}

void Daemon::report_path_down(const std::string& fingerprint) {
  prune_quarantine();
  down_until_[fingerprint] = net_.sim().now() + config_.down_path_penalty;
  metrics_.quarantined->set(static_cast<std::int64_t>(down_until_.size()));
  auto& sim = net_.sim();
  sim.trace(obs::TraceType::kPathDown, subject_, obs::TraceDetail::kText,
            sim.recorder().intern(fingerprint));
}

bool Daemon::path_alive(const controlplane::Path& path) const {
  const auto it = down_until_.find(path.fingerprint());
  return it == down_until_.end() || net_.sim().now() >= it->second;
}

}  // namespace sciera::endhost
