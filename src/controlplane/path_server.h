// Path lookup service (the "control service" of an AS). Hosts ask their
// local path server for paths toward a destination; the server combines
// the segments the core path servers hold (Section 2) and caches the
// combined set, matching the daemon behaviour the paper describes. A
// lookup answers at once: the daemon's cache and failover, not an RPC
// latency model, are what the soaks measure.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "controlplane/combinator.h"
#include "cppki/trc.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "simnet/simulator.h"

namespace sciera::controlplane {

class ControlService {
 public:
  // Cache freshness convention (shared with endhost::Daemon): an entry
  // aged exactly kCacheTtl is stale.
  static constexpr Duration kCacheTtl = 10 * kMinute;

  // `instance_name` labels this service's metric series; empty uses the
  // AS string (the single-service legacy naming). ControlServiceSet names
  // replica k > 0 as "<ia>#rk" so per-replica counters stay separable.
  ControlService(simnet::Simulator& sim, IsdAs ia,
                 const topology::Topology& topo, const SegmentStore& store,
                 const cppki::Trc* local_trc,
                 const std::string& instance_name = {});

  [[nodiscard]] IsdAs isd_as() const { return ia_; }
  [[nodiscard]] const cppki::Trc* local_trc() const { return trc_; }

  // The lookup. During an outage it fails fast: returns no_paths()
  // without touching the cache. Otherwise it returns the cached set
  // itself, combined once per cache miss and never modified afterwards: a
  // refetch or flush replaces the cache's pointer, so a holder's set stays
  // valid and unchanged.
  [[nodiscard]] PathSet lookup_paths_now(IsdAs dst);

  // Chaos fault model: while unavailable every lookup fails fast.
  void set_available(bool available);
  [[nodiscard]] bool available() const { return available_; }

  // Thin reads of the registry-backed cache counters.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_->value();
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return cache_misses_->value();
  }
  // Lookups failed fast because the service was unavailable.
  [[nodiscard]] std::uint64_t lookups_dropped() const {
    return lookups_dropped_->value();
  }
  // Every lookup that reached this replica (served or failed).
  [[nodiscard]] std::uint64_t lookups_total() const {
    return lookups_total_->value();
  }

  void flush_cache() { cache_.clear(); }

 private:
  struct CacheEntry {
    PathSet paths;
    SimTime fetched_at = 0;
  };

  simnet::Simulator& sim_;
  IsdAs ia_;
  Combinator combinator_;
  const cppki::Trc* trc_;
  // "cs-<ia>", interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
  std::unordered_map<IsdAs, CacheEntry> cache_;
  bool available_ = true;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* lookups_dropped_ = nullptr;
  obs::Counter* lookups_total_ = nullptr;
  obs::Gauge* available_gauge_ = nullptr;
};

}  // namespace sciera::controlplane
