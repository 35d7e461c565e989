// AS-level topology model: ASes, inter-AS links (core / parent-child /
// peering), geographic placement for realistic propagation delays, and
// lookup helpers used by the control plane, the BGP baseline, and the
// resilience simulations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/isd_as.h"
#include "common/result.h"
#include "common/time.h"

namespace sciera::topology {

enum class LinkType : std::uint8_t {
  kCore,         // between core ASes (possibly across ISDs)
  kParentChild,  // provider (a) -> customer (b)
  kPeering,      // non-transit peering between non-core ASes
};

// Local encapsulation carrying SCION frames over the circuit (Section 2:
// "or other local encapsulations, if present, such as MPLS"; Appendix C:
// SEC could only get a VXLAN over SingAREN).
enum class Encap : std::uint8_t { kVlan = 0, kMpls = 1, kVxlan = 2 };

[[nodiscard]] const char* encap_name(Encap encap);
// Per-frame overhead bytes the encapsulation adds on the wire.
[[nodiscard]] std::size_t encap_overhead(Encap encap);

struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
};

// Great-circle distance in km.
[[nodiscard]] double great_circle_km(const GeoPoint& a, const GeoPoint& b);
// One-way fiber propagation delay for a geographic distance, including a
// route-stretch factor (fiber never follows the geodesic).
[[nodiscard]] Duration fiber_delay(double distance_km,
                                   double route_stretch = 1.5);

struct AsInfo {
  IsdAs ia;
  std::string name;
  std::string city;
  GeoPoint location{};
  bool core = false;
  // Runs the scion-go-multiping vantage point (Section 5.4).
  bool measurement_point = false;
};

using LinkId = std::uint32_t;

struct LinkInfo {
  LinkId id = 0;
  std::string label;  // stable handle for incident schedules
  IsdAs a;            // for kParentChild: the parent
  IsdAs b;
  IfaceId a_iface = 0;
  IfaceId b_iface = 0;
  LinkType type = LinkType::kCore;
  Duration delay = 5 * kMillisecond;  // one-way propagation
  double bandwidth_bps = 10e9;
  Encap encap = Encap::kVlan;
  bool under_construction = false;

  [[nodiscard]] IsdAs other(IsdAs self) const { return self == a ? b : a; }
  [[nodiscard]] IfaceId iface_of(IsdAs self) const {
    return self == a ? a_iface : b_iface;
  }
  [[nodiscard]] IfaceId iface_of_other(IsdAs self) const {
    return self == a ? b_iface : a_iface;
  }
};

class Topology {
 public:
  // Registers an AS; fails if the ISD-AS already exists.
  Status add_as(AsInfo info);

  // Adds a link; interface ids are auto-assigned per AS (1-based) unless
  // explicitly provided (0 means auto).
  Result<LinkId> add_link(std::string label, IsdAs a, IsdAs b, LinkType type,
                          Duration delay, double bandwidth_bps = 10e9,
                          IfaceId a_iface = 0, IfaceId b_iface = 0);

  // Overrides the local encapsulation of an existing link.
  Status set_link_encap(std::string_view label, Encap encap);

  [[nodiscard]] const AsInfo* find_as(IsdAs ia) const;
  [[nodiscard]] const LinkInfo* find_link(LinkId id) const;
  [[nodiscard]] const LinkInfo* find_link_by_label(std::string_view label) const;

  [[nodiscard]] const std::vector<AsInfo>& ases() const { return ases_; }
  [[nodiscard]] const std::vector<LinkInfo>& links() const { return links_; }

  // Links incident to an AS (indices into links()), in link-id order;
  // empty for an unknown AS. Valid until the next add_link.
  [[nodiscard]] std::span<const LinkId> links_of(IsdAs ia) const;
  [[nodiscard]] std::vector<IsdAs> core_ases(Isd isd) const;
  [[nodiscard]] std::vector<IsdAs> children_of(IsdAs parent) const;
  // The link attached to an AS's interface, if any.
  [[nodiscard]] const LinkInfo* link_at(IsdAs ia, IfaceId iface) const;

  // Total number of distinct ISDs present.
  [[nodiscard]] std::vector<Isd> isds() const;

 private:
  std::vector<AsInfo> ases_;
  std::vector<LinkInfo> links_;
  std::unordered_map<IsdAs, std::size_t> as_index_;
  // Per AS, parallel to ases_: its incident links, appended by add_link.
  std::vector<std::vector<LinkId>> adjacency_;
  std::unordered_map<IsdAs, IfaceId> next_iface_;
  std::unordered_map<std::string, LinkId> label_index_;
};

}  // namespace sciera::topology
