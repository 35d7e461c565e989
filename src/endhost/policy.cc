#include "endhost/policy.h"

#include <algorithm>

#include "topology/sciera_net.h"

namespace sciera::endhost {

CarbonMap CarbonMap::sciera_defaults() {
  namespace a = topology::ases;
  CarbonMap map;
  map.set_default(300.0);
  // Very clean grids (hydro/nuclear heavy).
  map.set(a::switch71(), 45.0);   // CH
  map.set(a::switch64(), 45.0);
  map.set(a::eth(), 45.0);
  map.set(a::geant(), 120.0);     // mixed EU backbone
  map.set(a::sidn(), 250.0);      // NL
  map.set(a::ovgu(), 380.0);      // DE
  map.set(a::demokritos(), 420.0);  // GR
  map.set(a::cybexer(), 450.0);   // EE (shale legacy)
  map.set(a::ccdcoe(), 450.0);
  // KREONET ring + Asian leaves.
  map.set(a::kisti_dj(), 430.0);  // KR
  map.set(a::kisti_hk(), 550.0);  // HK
  map.set(a::kisti_sg(), 470.0);  // SG
  map.set(a::kisti_ams(), 250.0);
  map.set(a::kisti_chg(), 370.0);  // US midwest
  map.set(a::kisti_stl(), 110.0);  // US northwest hydro
  map.set(a::korea_univ(), 430.0);
  map.set(a::cityu(), 550.0);
  map.set(a::sec(), 470.0);
  map.set(a::nus(), 470.0);
  map.set(a::kaust(), 600.0);     // SA
  // Americas.
  map.set(a::bridges(), 340.0);
  map.set(a::uva(), 340.0);
  map.set(a::princeton(), 330.0);
  map.set(a::equinix(), 340.0);
  map.set(a::fabric(), 340.0);
  map.set(a::rnp(), 100.0);       // BR hydro
  map.set(a::ufms(), 100.0);
  // Africa.
  map.set(a::wacren(), 480.0);
  return map;
}

double path_carbon_score(const controlplane::Path& path,
                         const CarbonMap& carbon) {
  double score = 0.0;
  for (IsdAs ia : path.as_sequence) score += carbon.get(ia);
  return score;
}

bool PathPolicy::admits(const controlplane::Path& path) const {
  if (max_hops && path.as_sequence.size() > *max_hops) return false;
  for (IsdAs ia : path.as_sequence) {
    if (std::find(deny_ases.begin(), deny_ases.end(), ia) != deny_ases.end()) {
      return false;
    }
    if (std::find(deny_isds.begin(), deny_isds.end(), ia.isd()) !=
        deny_isds.end()) {
      return false;
    }
  }
  for (IsdAs required : require_ases) {
    if (std::find(path.as_sequence.begin(), path.as_sequence.end(),
                  required) == path.as_sequence.end()) {
      return false;
    }
  }
  if (forbid_commercial_transit) {
    // Commercial ASes may appear only as a contiguous run touching one end
    // of the path (traffic terminating in / originating from a commercial
    // network); a commercial AS strictly between two SCIERA ASes means the
    // academic network would act as, or use, commercial transit.
    const auto is_commercial = [this](IsdAs ia) {
      return std::find(commercial_isds.begin(), commercial_isds.end(),
                       ia.isd()) != commercial_isds.end();
    };
    std::size_t first = path.as_sequence.size();
    std::size_t last = 0;
    bool any = false;
    for (std::size_t i = 0; i < path.as_sequence.size(); ++i) {
      if (is_commercial(path.as_sequence[i])) {
        first = std::min(first, i);
        last = i;
        any = true;
      }
    }
    if (any) {
      for (std::size_t i = first; i <= last; ++i) {
        if (!is_commercial(path.as_sequence[i])) return false;  // gap
      }
      const bool touches_end =
          first == 0 || last + 1 == path.as_sequence.size();
      if (!touches_end) return false;
    }
  }
  return true;
}

bool PathPolicy::less(const controlplane::Path& x,
                      const controlplane::Path& y) const {
  for (Preference pref : preference) {
    switch (pref) {
      case Preference::kHops:
        if (x.as_sequence.size() != y.as_sequence.size()) {
          return x.as_sequence.size() < y.as_sequence.size();
        }
        break;
      case Preference::kLatency:
        if (x.static_rtt != y.static_rtt) return x.static_rtt < y.static_rtt;
        break;
      case Preference::kDisjointness: {
        if (disjoint_reference) {
          const double dx = path_disjointness(x, *disjoint_reference);
          const double dy = path_disjointness(y, *disjoint_reference);
          if (dx != dy) return dx > dy;  // more disjoint first
        }
        break;
      }
      case Preference::kCarbon: {
        const double cx = path_carbon_score(x, carbon);
        const double cy = path_carbon_score(y, carbon);
        if (cx != cy) return cx < cy;
        break;
      }
    }
  }
  return x.fingerprint() < y.fingerprint();
}

std::vector<std::size_t> PathPolicy::rank(
    const std::vector<controlplane::Path>& paths) const {
  std::vector<std::size_t> order;
  order.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (admits(paths[i])) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this, &paths](std::size_t x, std::size_t y) {
                     return less(paths[x], paths[y]);
                   });
  return order;
}

std::vector<controlplane::Path> PathPolicy::apply(
    std::vector<controlplane::Path> paths) const {
  std::vector<controlplane::Path> sorted;
  const std::vector<std::size_t> order = rank(paths);
  sorted.reserve(order.size());
  for (const std::size_t index : order) {
    sorted.push_back(std::move(paths[index]));
  }
  return sorted;
}

const std::vector<std::size_t>& PathSelector::ranking(
    IsdAs dst, const controlplane::PathSet& set) {
  Ranking& entry = rankings_[dst];
  if (entry.set != set) {
    entry.order = policy_.rank(*set);
    entry.set = set;
    ++built_;
  }
  return entry.order;
}

PathPolicy lowest_latency_policy() {
  PathPolicy policy;
  policy.preference = {PathPolicy::Preference::kLatency};
  return policy;
}

PathPolicy fewest_hops_policy() {
  PathPolicy policy;
  policy.preference = {PathPolicy::Preference::kHops,
                       PathPolicy::Preference::kLatency};
  return policy;
}

PathPolicy green_policy() {
  PathPolicy policy;
  policy.preference = {PathPolicy::Preference::kCarbon,
                       PathPolicy::Preference::kLatency};
  return policy;
}

PathPolicy geofence_policy(std::vector<Isd> deny_isds) {
  PathPolicy policy;
  policy.deny_isds = std::move(deny_isds);
  return policy;
}

}  // namespace sciera::endhost
