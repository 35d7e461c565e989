// Path lookup service (the "control service" of an AS). Hosts ask their
// local path server for segments toward a destination; the local server
// recursively consults core path servers (Section 2). The recursion is
// modelled as a latency budget derived from the actual core distances, and
// results are cached — matching the daemon behaviour the paper describes.
#pragma once

#include <functional>
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

  // Asynchronous lookup with realistic latency: cached answers cost one
  // intra-AS round trip; cold lookups add core path-server round trips.
  // During an outage the request is dropped — the callback never fires,
  // exactly like an RPC into a dead service. Clients own the timeout
  // (endhost::Daemon wraps this with timeout/backoff/circuit-breaker).
  void lookup_paths(IsdAs dst, std::function<void(const PathSet&)> callback);

  // Synchronous variant used by infrastructure tooling. During an outage
  // it fails fast: returns no_paths() without touching the cache.
  // Otherwise it returns the cached set itself, combined once per cache
  // miss and never modified afterwards: a refetch or flush replaces the
  // cache's pointer, so a holder's set stays valid and unchanged.
  [[nodiscard]] PathSet lookup_paths_now(IsdAs dst);

  // Chaos fault model: service availability and processing slowdown.
  // While unavailable every lookup is dropped/failed; a slowdown factor
  // >= 1 multiplies the answer latency of async lookups (maintenance
  // windows, overload) without dropping them.
  void set_available(bool available);
  [[nodiscard]] bool available() const { return available_; }
  void set_slowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }
  [[nodiscard]] double slowdown() const { return slowdown_; }

  // Thin reads of the registry-backed cache counters.
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_->value();
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return cache_misses_->value();
  }
  // Lookups dropped or failed fast because the service was unavailable.
  [[nodiscard]] std::uint64_t lookups_dropped() const {
    return lookups_dropped_->value();
  }
  // Every lookup that reached this replica (served or dropped).
  [[nodiscard]] std::uint64_t lookups_total() const {
    return lookups_total_->value();
  }

  void flush_cache() { cache_.clear(); }

 private:
  struct CacheEntry {
    PathSet paths;
    SimTime fetched_at = 0;
  };

  [[nodiscard]] Duration cold_lookup_latency(IsdAs dst) const;

  simnet::Simulator& sim_;
  IsdAs ia_;
  const topology::Topology& topo_;
  Combinator combinator_;
  const cppki::Trc* trc_;
  // "cs-<ia>", interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
  std::unordered_map<IsdAs, CacheEntry> cache_;
  bool available_ = true;
  double slowdown_ = 1.0;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* lookups_dropped_ = nullptr;
  obs::Counter* lookups_total_ = nullptr;
  obs::Gauge* available_gauge_ = nullptr;
};

}  // namespace sciera::controlplane
