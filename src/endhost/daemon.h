// The SCION daemon (Section 2, "End-host Stack"): the per-host control
// plane client. It consolidates path lookup and caching, keeps the TRC
// database, and tracks data-plane path liveness (SCMP feedback) so
// applications can fail over instantly.
//
// Resilience: every lookup is synchronous and runs one degradation
// ladder. A fresh cache entry answers first; otherwise the daemon fetches
// from the AS's replicated control service, failing over across replicas
// in deterministic index order behind a per-(destination, replica)
// circuit breaker; when every replica stays unreachable it serves
// stale-but-marked cached paths, capped at max_stale_age (the paper's
// "apps keep working through control-plane maintenance"). All of it is
// sim-clock driven and replays from the seed.
#pragma once

#include <map>
#include <unordered_map>

#include "common/backoff.h"
#include "controlplane/control_plane.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sciera::endhost {

// Where a lookup's answer came from — the degradation ladder.
enum class PathSource : std::uint8_t {
  kFreshCache,   // daemon cache entry, age < ttl
  kFetched,      // the control service answered
  kStaleCache,   // service unreachable; expired entry served, marked stale
  kUnavailable,  // nothing to serve: fetch failed and no cached entry
};

// A path lookup with its provenance. `stale` is the stale-but-marked bit:
// the caller knows it is riding cached state through an outage.
struct PathLookup {
  std::vector<controlplane::Path> paths;
  PathSource source = PathSource::kUnavailable;
  bool stale = false;
};

class Daemon {
 public:
  struct Resilience {
    // Master switch (the soak harness A/Bs survivability with it off).
    // Off reproduces the legacy client: the primary replica only, no
    // breaker, and a fetch failure answers empty instead of serving stale.
    bool enabled = true;
    // Ceiling on how old a stale entry may be and still be served: an
    // entry aged >= max_stale_age answers kUnavailable instead of
    // kStaleCache (degraded mode cannot ride arbitrarily old paths
    // forever). 0 disables the cap.
    Duration max_stale_age = 30 * kMinute;
  };

  struct Config {
    // An entry aged exactly path_cache_ttl is stale (the same boundary
    // convention as ControlService::kCacheTtl).
    Duration path_cache_ttl = 5 * kMinute;
    Duration down_path_penalty = 90 * kSecond;
    Resilience resilience{};
  };

  // Registry cells, registered at construction.
  struct Metrics {
    obs::Counter* lookups = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* stale_served = nullptr;
    obs::Counter* degraded_empty = nullptr;
    obs::Counter* breaker_trips = nullptr;
    obs::Gauge* quarantined = nullptr;
  };

  Daemon(controlplane::ScionNetwork& net, IsdAs ia, Config config);
  Daemon(controlplane::ScionNetwork& net, IsdAs ia)
      : Daemon(net, ia, Config{}) {}

  [[nodiscard]] IsdAs isd_as() const { return ia_; }

  // Live paths toward dst (cached; drops paths reported down).
  [[nodiscard]] std::vector<controlplane::Path> paths(IsdAs dst);
  // Same lookup with provenance (fresh/fetched/stale/unavailable).
  [[nodiscard]] PathLookup paths_detailed(IsdAs dst);
  // The same lookup without the copy, for selecting one path: the shared
  // set this daemon serves for dst (no_paths() when it has nothing to
  // serve), down paths included. Selectors keep only paths passing
  // path_alive(). Bookkeeping is identical to paths(): one lookup.
  [[nodiscard]] controlplane::PathSet path_set(IsdAs dst);

  // The daemon's TRC database (fed from the local control service's ISD
  // plus any TRCs learned during bootstrap).
  [[nodiscard]] const cppki::Trc* trc(Isd isd) const;

  // SCMP feedback: a path failed on the data plane (e.g. external
  // interface down). It is quarantined for down_path_penalty.
  void report_path_down(const std::string& fingerprint);
  [[nodiscard]] bool path_alive(const controlplane::Path& path) const;

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  // Currently quarantined fingerprints (expired entries are pruned on
  // every lookup and report, so this cannot grow without bound).
  [[nodiscard]] std::size_t quarantined() const { return down_until_.size(); }
  void flush_cache() { cache_.clear(); }

  // Stale-serving window bounds for the soak report: sim times of the
  // first and last stale answer this daemon served, -1 if it never did.
  [[nodiscard]] SimTime first_stale_at() const { return first_stale_at_; }
  [[nodiscard]] SimTime last_stale_at() const { return last_stale_at_; }

 private:
  // The control service's shared set itself, not a copy: every daemon of
  // an AS that fetched the same answer holds one set, and a selection
  // holding it keeps it alive across a refetch or flush.
  struct CacheEntry {
    controlplane::PathSet paths;
    SimTime fetched_at = 0;
  };
  // A lookup's answer before the liveness filter.
  struct Answer {
    controlplane::PathSet paths;
    PathSource source = PathSource::kUnavailable;
  };

  // Erases quarantine entries whose penalty has elapsed.
  void prune_quarantine();
  // The ladder behind every lookup: prunes quarantine and counts the
  // lookup, then answers from a fresh cache entry (age < ttl: stale at
  // age >= ttl, the control service's boundary too), a replica failover
  // fetch, or the degradation tail.
  [[nodiscard]] Answer answer(IsdAs dst);
  // The degradation tail: stale-but-marked cache if allowed, otherwise
  // an explicit empty answer.
  [[nodiscard]] Answer degraded(IsdAs dst);
  // Replicas this daemon fails over across. Legacy mode (resilience
  // disabled) pins itself to the primary: the pre-replication client had
  // exactly one service and no failover. An AS without a control service
  // (its ISD has no PKI) has none, so every miss answers from the
  // degradation tail.
  [[nodiscard]] std::size_t replica_count() const;
  // Breakers are per (destination, replica): one dead replica must not
  // poison lookups through its healthy peers, and one hard destination
  // must not poison others (the PR 4 isolation, now two-dimensional).
  [[nodiscard]] CircuitBreaker& breaker_for(IsdAs dst, std::size_t replica);
  void record_fetch_failure(IsdAs dst, std::size_t replica);

  controlplane::ScionNetwork& net_;
  IsdAs ia_;
  Config config_;
  controlplane::ControlServiceSet* services_;  // nullptr: no service
  // "daemon-<ia>", interned: every trace event's subject.
  obs::TraceId subject_ = 0;
  std::unordered_map<IsdAs, CacheEntry> cache_;
  std::unordered_map<IsdAs, std::vector<CircuitBreaker>> breakers_;
  std::map<std::string, SimTime> down_until_;
  SimTime first_stale_at_ = -1;
  SimTime last_stale_at_ = -1;
  Metrics metrics_;
};

}  // namespace sciera::endhost
