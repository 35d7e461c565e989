#include "bgp/bgp.h"

#include <algorithm>

namespace sciera::bgp {

using topology::LinkId;
using topology::LinkInfo;
using topology::LinkType;

namespace {

// Cap on path-vector exchange rounds per convergence.
constexpr int kMaxRounds = 64;

}  // namespace

bool Route::better_than(const Route& other) const {
  if (pref_class != other.pref_class) return pref_class < other.pref_class;
  if (as_path.size() != other.as_path.size()) {
    return as_path.size() < other.as_path.size();
  }
  // Real BGP is delay-blind: equal-length candidates tie-break on router
  // identifiers, not latency. This is precisely why a path-aware network
  // can beat the BGP path (Section 5.4): the deterministic lexicographic
  // tie-break regularly picks a delay-suboptimal route.
  if (as_path != other.as_path) return as_path < other.as_path;
  return links < other.links;
}

BgpNetwork::BgpNetwork(const topology::Topology& topo) : topo_(topo) {
  link_state_.assign(topo_.links().size(), true);
  for (const auto& link : topo_.links()) {
    Neighbor::Rel a_sees_b = Neighbor::Rel::kPeer;
    Neighbor::Rel b_sees_a = Neighbor::Rel::kPeer;
    switch (link.type) {
      case LinkType::kCore:
        // Core links are sibling/transit links: the cores form a Tier-1
        // backbone consortium.
        a_sees_b = b_sees_a = Neighbor::Rel::kCorePeer;
        break;
      case LinkType::kParentChild:
        a_sees_b = Neighbor::Rel::kCustomer;  // a is the provider
        b_sees_a = Neighbor::Rel::kProvider;
        break;
      case LinkType::kPeering:
        a_sees_b = b_sees_a = Neighbor::Rel::kPeer;
        break;
    }
    neighbors_[link.a].push_back(Neighbor{link.b, link.id, a_sees_b});
    neighbors_[link.b].push_back(Neighbor{link.a, link.id, b_sees_a});
  }
  converge();
}

void BgpNetwork::set_link_up(LinkId id, bool up) {
  if (id < link_state_.size()) {
    link_state_[id] = up;
    converge();
  }
}

void BgpNetwork::set_link_up(std::string_view label, bool up) {
  if (const auto* link = topo_.find_link_by_label(label)) {
    set_link_up(link->id, up);
  }
}

bool BgpNetwork::link_up(LinkId id) const {
  return id < link_state_.size() && link_state_[id];
}

bool BgpNetwork::exports_to(const Route& route, Neighbor::Rel to_rel) const {
  // Gao-Rexford: customer routes go to everyone; peer/provider routes go
  // to customers only. Core-peer (backbone consortium) routes are
  // re-exported to customers and other core peers (full transit).
  switch (route.pref_class) {
    case 0:  // own or customer-learned
      return true;
    case 1:  // learned over a core-peer link
      return to_rel == Neighbor::Rel::kCustomer ||
             to_rel == Neighbor::Rel::kCorePeer;
    case 2:  // learned from a peer or provider
      return to_rel == Neighbor::Rel::kCustomer;
    default:
      return false;
  }
}

void BgpNetwork::converge() {
  ribs_.clear();
  // Seed: every AS originates itself.
  for (const auto& as_info : topo_.ases()) {
    Route self;
    self.pref_class = 0;
    self.as_path = {as_info.ia};
    ribs_[as_info.ia][as_info.ia] = self;
  }

  rounds_ = 0;
  bool changed = true;
  while (changed && rounds_ < kMaxRounds) {
    changed = false;
    ++rounds_;
    for (const auto& as_info : topo_.ases()) {
      const IsdAs speaker = as_info.ia;
      const auto rib_it = ribs_.find(speaker);
      if (rib_it == ribs_.end()) continue;
      for (const Neighbor& nbr : neighbors_[speaker]) {
        if (!link_state_[nbr.link]) continue;
        const LinkInfo* link = topo_.find_link(nbr.link);
        for (const auto& [dst, route] : rib_it->second) {
          if (!exports_to(route, nbr.rel)) continue;
          // Loop prevention.
          if (std::find(route.as_path.begin(), route.as_path.end(), nbr.as) !=
              route.as_path.end()) {
            continue;
          }
          Route candidate;
          // Preference from the receiver's perspective: what the neighbor
          // is to the receiver (speaker is customer of nbr when nbr sees a
          // customer... invert: receiver's relationship to speaker).
          Neighbor::Rel speaker_rel = Neighbor::Rel::kPeer;
          for (const Neighbor& back : neighbors_[nbr.as]) {
            if (back.link == nbr.link) {
              speaker_rel = back.rel;
              break;
            }
          }
          switch (speaker_rel) {
            case Neighbor::Rel::kCustomer: candidate.pref_class = 0; break;
            case Neighbor::Rel::kCorePeer: candidate.pref_class = 1; break;
            case Neighbor::Rel::kPeer:
            case Neighbor::Rel::kProvider: candidate.pref_class = 2; break;
          }
          candidate.as_path.reserve(route.as_path.size() + 1);
          candidate.as_path.push_back(nbr.as);
          candidate.as_path.insert(candidate.as_path.end(),
                                   route.as_path.begin(),
                                   route.as_path.end());
          candidate.links.reserve(route.links.size() + 1);
          candidate.links.push_back(nbr.link);
          candidate.links.insert(candidate.links.end(), route.links.begin(),
                                 route.links.end());
          candidate.one_way_delay = route.one_way_delay + link->delay;

          Route& current = ribs_[nbr.as][dst];
          if (candidate.better_than(current)) {
            current = candidate;
            changed = true;
          }
        }
      }
    }
  }
}

const Route* BgpNetwork::route(IsdAs src, IsdAs dst) const {
  const auto rib_it = ribs_.find(src);
  if (rib_it == ribs_.end()) return nullptr;
  const auto it = rib_it->second.find(dst);
  if (it == rib_it->second.end() || it->second.pref_class > 2) return nullptr;
  return &it->second;
}

std::optional<Duration> BgpNetwork::rtt(IsdAs src, IsdAs dst) const {
  const Route* r = route(src, dst);
  if (r == nullptr) return std::nullopt;
  // Two-way propagation plus endpoint processing, matching the SCION-side
  // static estimate so the comparison is apples to apples.
  return 2 * r->one_way_delay + 2 * 600 * kMicrosecond;
}

}  // namespace sciera::bgp
