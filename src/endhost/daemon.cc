#include "endhost/daemon.h"

#include <memory>
#include <utility>

#include "obs/flight_recorder.h"

namespace sciera::endhost {

const char* path_source_name(PathSource source) {
  switch (source) {
    case PathSource::kFreshCache: return "fresh_cache";
    case PathSource::kFetched: return "fetched";
    case PathSource::kStaleCache: return "stale_cache";
    case PathSource::kUnavailable: return "unavailable";
  }
  return "unknown";
}

Daemon::Daemon(controlplane::ScionNetwork& net, IsdAs ia, Config config)
    : net_(net), ia_(ia), config_(config),
      services_(net.control_service_set(ia)),
      rng_(net.options().seed, "daemon-" + ia.to_string()) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{
      {"daemon", registry.instance_label("daemon", ia.to_string())}};
  lookups_ = &registry.counter("sciera_daemon_lookups_total", base);
  const auto cache = [&](const char* result) {
    obs::Labels labels = base;
    labels.emplace_back("result", result);
    return &registry.counter("sciera_daemon_cache_total", labels);
  };
  cache_hits_ = cache("hit");
  cache_misses_ = cache("miss");
  const auto degraded = [&](const char* result) {
    obs::Labels labels = base;
    labels.emplace_back("result", result);
    return &registry.counter("sciera_daemon_degraded_total", labels);
  };
  stale_served_ = degraded("stale");
  degraded_empty_ = degraded("empty");
  lookup_timeouts_ =
      &registry.counter("sciera_daemon_lookup_timeouts_total", base);
  lookup_retries_ =
      &registry.counter("sciera_daemon_lookup_retries_total", base);
  breaker_trips_ =
      &registry.counter("sciera_daemon_breaker_trips_total", base);
  quarantine_size_ = &registry.gauge("sciera_daemon_quarantined", base);
}

std::vector<controlplane::Path> Daemon::filter_alive(
    std::vector<controlplane::Path> paths) const {
  std::erase_if(paths, [this](const controlplane::Path& path) {
    return !path_alive(path);
  });
  return paths;
}

void Daemon::prune_quarantine() {
  const SimTime now = net_.sim().now();
  std::erase_if(down_until_,
                [now](const auto& entry) { return now >= entry.second; });
  quarantine_size_->set(static_cast<std::int64_t>(down_until_.size()));
}

const Daemon::CacheEntry* Daemon::begin_lookup(IsdAs dst) {
  prune_quarantine();
  lookups_->inc();
  const auto it = cache_.find(dst);
  // Fresh iff age < ttl: an entry aged exactly path_cache_ttl is stale.
  const bool hit =
      it != cache_.end() &&
      net_.sim().now() - it->second.fetched_at < config_.path_cache_ttl;
  obs::FlightRecorder::global().record(
      obs::TraceType::kPathLookup, net_.sim().now(),
      net_.sim().executed_events(), "daemon-" + ia_.to_string(),
      dst.to_string() + (hit ? " hit" : " miss"));
  if (!hit) {
    cache_misses_->inc();
    return nullptr;
  }
  cache_hits_->inc();
  return &it->second;
}

std::size_t Daemon::replica_count() const {
  return config_.resilience.enabled ? services_->size() : 1;
}

CircuitBreaker& Daemon::breaker_for(IsdAs dst, std::size_t replica) {
  auto it = breakers_.find(dst);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(dst,
                      std::vector<CircuitBreaker>(
                          replica_count(),
                          CircuitBreaker{config_.resilience.breaker}))
             .first;
  }
  return it->second[replica];
}

void Daemon::record_fetch_failure(IsdAs dst, std::size_t replica) {
  if (!config_.resilience.enabled) return;
  CircuitBreaker& breaker = breaker_for(dst, replica);
  const std::uint64_t opened_before = breaker.times_opened();
  breaker.record_failure(net_.sim().now());
  if (breaker.times_opened() > opened_before) breaker_trips_->inc();
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
  const bool serve_stale = config_.resilience.enabled &&
                           config_.resilience.serve_stale && have_stale;
  if (serve_stale) {
    stale_served_->inc();
    if (first_stale_at_ < 0) first_stale_at_ = net_.sim().now();
    last_stale_at_ = net_.sim().now();
  } else {
    degraded_empty_->inc();
  }
  obs::FlightRecorder::global().record(
      obs::TraceType::kLookupDegraded, net_.sim().now(),
      net_.sim().executed_events(), "daemon-" + ia_.to_string(),
      dst.to_string() + (serve_stale ? " stale" : " empty"));
  if (serve_stale) return Answer{it->second.paths, PathSource::kStaleCache};
  return Answer{controlplane::no_paths(), PathSource::kUnavailable};
}

PathLookup Daemon::live(const Answer& answer) const {
  return PathLookup{filter_alive(*answer.paths), answer.source,
                    answer.source == PathSource::kStaleCache};
}

std::vector<controlplane::Path> Daemon::paths(IsdAs dst) {
  return paths_detailed(dst).paths;
}

PathLookup Daemon::paths_detailed(IsdAs dst) { return live(answer(dst)); }

controlplane::PathSet Daemon::path_set(IsdAs dst) {
  return answer(dst).paths;
}

Daemon::Answer Daemon::answer(IsdAs dst) {
  if (const CacheEntry* entry = begin_lookup(dst)) {
    return Answer{entry->paths, PathSource::kFreshCache};
  }
  // Replica failover in deterministic index order: skip replicas whose
  // breaker is open (fail fast, no failure charged), charge a failure to
  // a dead replica and move on, fetch from the first live one. A failed
  // fetch is never cached and never overwrites a stale entry.
  const SimTime now = net_.sim().now();
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

void Daemon::paths_async(
    IsdAs dst, std::function<void(std::vector<controlplane::Path>)> cb) {
  paths_async_detailed(dst, [cb = std::move(cb)](PathLookup lookup) {
    cb(std::move(lookup.paths));
  });
}

void Daemon::paths_async_detailed(IsdAs dst,
                                  std::function<void(PathLookup)> cb) {
  if (const CacheEntry* entry = begin_lookup(dst)) {
    // Answer from cache on the next tick so the callback is always
    // asynchronous (callers cannot observe a reentrant answer).
    PathLookup result = live(Answer{entry->paths, PathSource::kFreshCache});
    net_.sim().schedule_after(
        0, [cb = std::move(cb), result = std::move(result)] { cb(result); });
    return;
  }
  auto lookup = std::make_shared<AsyncLookup>();
  lookup->dst = dst;
  lookup->cb = std::move(cb);
  start_attempt(lookup);
}

void Daemon::start_attempt(const std::shared_ptr<AsyncLookup>& lookup) {
  const Resilience& res = config_.resilience;
  const IsdAs dst = lookup->dst;
  // Pick the first replica whose breaker admits the request (index order,
  // so failover is deterministic). With every breaker open there is no
  // one left to ask: degrade.
  std::size_t target = 0;
  if (res.enabled) {
    bool admitted = false;
    for (std::size_t r = 0; r < replica_count(); ++r) {
      if (breaker_for(dst, r).allow(net_.sim().now())) {
        target = r;
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      lookup->cb(live(degraded(dst)));
      return;
    }
  }
  ++lookup->attempts;
  // Settled by exactly one of: the service's answer or the timeout. A
  // late answer (after the timeout fired) is discarded.
  auto settled = std::make_shared<bool>(false);
  services_->replica(target)->lookup_paths(
      dst, [this, lookup, settled, dst, target](
               const controlplane::PathSet& paths) {
        if (*settled) return;
        *settled = true;
        if (config_.resilience.enabled) {
          breaker_for(dst, target).record_success();
        }
        CacheEntry entry;
        entry.paths = paths;
        entry.fetched_at = net_.sim().now();
        cache_.insert_or_assign(dst, std::move(entry));
        lookup->cb(live(Answer{paths, PathSource::kFetched}));
      });
  // Legacy mode: no timeout — during an outage the callback simply never
  // fires (the dropped-RPC behaviour the chaos campaigns surfaced).
  if (!res.enabled) return;
  net_.sim().schedule_after(
      res.lookup_timeout, [this, lookup, settled, dst, target] {
        if (*settled) return;
        *settled = true;
        lookup_timeouts_->inc();
        record_fetch_failure(dst, target);
        if (lookup->attempts < config_.resilience.backoff.max_attempts) {
          lookup_retries_->inc();
          const Duration delay =
              config_.resilience.backoff.delay(lookup->attempts, rng_);
          net_.sim().schedule_after(delay,
                                    [this, lookup] { start_attempt(lookup); });
          return;
        }
        lookup->cb(live(degraded(dst)));
      });
}

const cppki::Trc* Daemon::trc(Isd isd) const {
  auto* pki = net_.pki(isd);
  return pki == nullptr ? nullptr : &pki->trc();
}

void Daemon::report_path_down(const std::string& fingerprint) {
  prune_quarantine();
  down_until_[fingerprint] = net_.sim().now() + config_.down_path_penalty;
  quarantine_size_->set(static_cast<std::int64_t>(down_until_.size()));
  obs::FlightRecorder::global().record(
      obs::TraceType::kPathDown, net_.sim().now(),
      net_.sim().executed_events(), "daemon-" + ia_.to_string(), fingerprint);
}

bool Daemon::path_alive(const controlplane::Path& path) const {
  const auto it = down_until_.find(path.fingerprint());
  return it == down_until_.end() || net_.sim().now() >= it->second;
}

}  // namespace sciera::endhost
