// Path policies (Sections 4.2.2, 4.7, 4.9): filtering (geofencing, AS
// deny-lists, the SCIERA no-commercial-transit rule) and preference
// sorting (hops, latency, disjointness, carbon-aware "green" routing).
// This is what the PAN-style socket exposes to applications via its
// policy/preference flags — the bat tool's CLI options in Section 5.2.
// rank() is the policy's order over a set, computed once per set: a
// PathSelector keeps it per destination, so a send walks a ranking instead
// of scanning the set. apply() is the same order as a sorted copy, for
// path listings and interactive selection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "controlplane/combinator.h"

namespace sciera::endhost {

// Per-AS carbon intensity (gCO2eq/kWh of the hosting grid), the input to
// green routing [Tabaeiaghdaei et al., e-Energy 2023].
class CarbonMap {
 public:
  void set(IsdAs ia, double intensity) { intensity_[ia] = intensity; }
  [[nodiscard]] double get(IsdAs ia) const {
    const auto it = intensity_.find(ia);
    return it == intensity_.end() ? default_intensity_ : it->second;
  }
  void set_default(double intensity) { default_intensity_ = intensity; }

  // Grid intensities for the SCIERA PoP countries (approximate public
  // figures; relative order is what matters for path choice).
  static CarbonMap sciera_defaults();

 private:
  std::map<IsdAs, double> intensity_;
  double default_intensity_ = 300.0;
};

// Sum of per-AS intensities along the path (simple additive model).
[[nodiscard]] double path_carbon_score(const controlplane::Path& path,
                                       const CarbonMap& carbon);

struct PathPolicy {
  enum class Preference { kHops, kLatency, kDisjointness, kCarbon };

  // --- Filters -------------------------------------------------------------
  std::vector<IsdAs> deny_ases;
  std::vector<Isd> deny_isds;  // geofencing: never cross these ISDs
  std::vector<IsdAs> require_ases;
  std::optional<std::size_t> max_hops;
  // Section 4.9: commercial ISDs may appear only as endpoints, never as
  // transit, so SCIERA cannot be abused as free transit.
  bool forbid_commercial_transit = false;
  std::vector<Isd> commercial_isds = {64};

  // --- Ordering --------------------------------------------------------------
  // Applied lexicographically, like PAN's comma-separated sorting options.
  std::vector<Preference> preference = {Preference::kLatency};
  // Reference path for the disjointness preference (most-disjoint-from).
  std::optional<controlplane::Path> disjoint_reference;
  CarbonMap carbon = CarbonMap::sciera_defaults();

  [[nodiscard]] bool admits(const controlplane::Path& path) const;
  // The policy's one ordering: the preferences in turn, then the
  // fingerprint. Fingerprints are unique within a combined set (the
  // combinator dedups on them), so over one set this is a strict total
  // order.
  [[nodiscard]] bool less(const controlplane::Path& x,
                          const controlplane::Path& y) const;
  // The indices of the admitted paths, stable-sorted under less(): the
  // first index is the policy's preferred path.
  [[nodiscard]] std::vector<std::size_t> rank(
      const std::vector<controlplane::Path>& paths) const;
  // The admitted paths in rank() order, for callers that want the whole
  // list.
  [[nodiscard]] std::vector<controlplane::Path> apply(
      std::vector<controlplane::Path> paths) const;
};

// A sender's policy with its per-destination rankings (PanSocket,
// ScionIpGateway). For each destination it keeps the shared set it last
// ranked and that set's rank() order. Holding the set keeps its address
// from being reused by another set, so a pointer comparison tells whether
// a lookup handed back the set already ranked. A ranking is rebuilt only
// when the lookup hands back a different set object or set_policy()
// replaces the policy.
class PathSelector {
 public:
  [[nodiscard]] const PathPolicy& policy() const { return policy_; }
  void set_policy(PathPolicy policy) {
    policy_ = std::move(policy);
    rankings_.clear();
  }

  // The preferred admitted path of `set` that also passes `keep` (e.g.
  // liveness, link state), or nullptr if none does: the front of
  // policy().apply(*set) filtered by `keep`. It points into `set`.
  template <typename Keep>
  [[nodiscard]] const controlplane::Path* first(
      IsdAs dst, const controlplane::PathSet& set, Keep&& keep) {
    for (const std::size_t index : ranking(dst, set)) {
      const controlplane::Path& path = (*set)[index];
      if (keep(path)) return &path;
    }
    return nullptr;
  }

  // Rankings built so far, re-rankings included.
  [[nodiscard]] std::uint64_t rankings_built() const { return built_; }

 private:
  struct Ranking {
    controlplane::PathSet set;
    std::vector<std::size_t> order;
  };
  [[nodiscard]] const std::vector<std::size_t>& ranking(
      IsdAs dst, const controlplane::PathSet& set);

  PathPolicy policy_;
  std::map<IsdAs, Ranking> rankings_;
  std::uint64_t built_ = 0;
};

// Convenience builders mirroring the bat tool's CLI flags.
[[nodiscard]] PathPolicy lowest_latency_policy();
[[nodiscard]] PathPolicy fewest_hops_policy();
[[nodiscard]] PathPolicy green_policy();
[[nodiscard]] PathPolicy geofence_policy(std::vector<Isd> deny_isds);

}  // namespace sciera::endhost
