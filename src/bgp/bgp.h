// The IP-Internet baseline: BGP-style path-vector routing over the same
// physical topology. The measurement study (Section 5.4) compares SCMP
// pings over three SCION paths against ICMP pings over "the path defined
// by BGP" — this module computes that single path per AS pair, with
// Gao-Rexford-style export policies and convergence after link failures.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/isd_as.h"
#include "common/time.h"
#include "topology/topology.h"

namespace sciera::bgp {

struct Route {
  // Lower is more preferred: 0 customer-learned, 1 core/peer, 2 provider.
  int pref_class = 3;
  std::vector<IsdAs> as_path;  // from the route's owner to the destination
  std::vector<topology::LinkId> links;
  Duration one_way_delay = 0;

  [[nodiscard]] bool better_than(const Route& other) const;
};

class BgpNetwork {
 public:
  explicit BgpNetwork(const topology::Topology& topo);

  // Marks a link up/down and reconverges.
  void set_link_up(topology::LinkId id, bool up);
  void set_link_up(std::string_view label, bool up);
  [[nodiscard]] bool link_up(topology::LinkId id) const;

  // The selected BGP route from src toward dst (nullptr: unreachable).
  [[nodiscard]] const Route* route(IsdAs src, IsdAs dst) const;
  // End-to-end ICMP RTT over the BGP path (propagation only; the caller
  // adds jitter). nullopt when unreachable.
  [[nodiscard]] std::optional<Duration> rtt(IsdAs src, IsdAs dst) const;

  [[nodiscard]] int last_convergence_rounds() const { return rounds_; }
  // Recomputes all routes from scratch (also called by set_link_up).
  void converge();

 private:
  struct Neighbor {
    IsdAs as;
    topology::LinkId link;
    // Relationship of the neighbor from this AS's perspective.
    enum class Rel { kCustomer, kProvider, kCorePeer, kPeer } rel;
  };

  [[nodiscard]] bool exports_to(const Route& route,
                                Neighbor::Rel to_rel) const;

  const topology::Topology& topo_;
  std::vector<bool> link_state_;
  std::unordered_map<IsdAs, std::vector<Neighbor>> neighbors_;
  // ribs_[src][dst] = selected route.
  std::unordered_map<IsdAs, std::unordered_map<IsdAs, Route>> ribs_;
  int rounds_ = 0;
};

}  // namespace sciera::bgp
