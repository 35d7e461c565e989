// Path policies (Sections 4.2.2, 4.7, 4.9): filtering (geofencing, AS
// deny-lists, the SCIERA no-commercial-transit rule) and preference
// sorting (hops, latency, disjointness, carbon-aware "green" routing).
// This is what the PAN-style socket exposes to applications via its
// policy/preference flags — the bat tool's CLI options in Section 5.2.
// Sends pick their path with best() over the daemon's shared set; apply()
// is the full sorted list for path listings and interactive selection.
#pragma once

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
  // Filters + stable-sorts under less(); the first element is the
  // policy's preferred path. For callers that want the whole list.
  [[nodiscard]] std::vector<controlplane::Path> apply(
      std::vector<controlplane::Path> paths) const;
  // The preferred admitted path that also passes `keep` (e.g. liveness,
  // link state), or nullptr if none does: the front of apply(paths)
  // filtered by `keep`, found in one pass that copies and sorts nothing.
  // A path replaces the candidate only when strictly less, so ties keep
  // the pick stable_sort makes.
  template <typename Keep>
  [[nodiscard]] const controlplane::Path* best(
      const std::vector<controlplane::Path>& paths, Keep&& keep) const {
    const controlplane::Path* chosen = nullptr;
    for (const controlplane::Path& path : paths) {
      if (!admits(path) || !keep(path)) continue;
      if (chosen == nullptr || less(path, *chosen)) chosen = &path;
    }
    return chosen;
  }
};

// Convenience builders mirroring the bat tool's CLI flags.
[[nodiscard]] PathPolicy lowest_latency_policy();
[[nodiscard]] PathPolicy fewest_hops_policy();
[[nodiscard]] PathPolicy green_policy();
[[nodiscard]] PathPolicy geofence_policy(std::vector<Isd> deny_isds);

}  // namespace sciera::endhost
