#include "topology/topology.h"

#include <cmath>

namespace sciera::topology {

const char* encap_name(Encap encap) {
  switch (encap) {
    case Encap::kVlan: return "vlan";
    case Encap::kMpls: return "mpls";
    case Encap::kVxlan: return "vxlan";
  }
  return "?";
}

std::size_t encap_overhead(Encap encap) {
  switch (encap) {
    case Encap::kVlan: return 4;    // 802.1Q tag
    case Encap::kMpls: return 4;    // one label
    case Encap::kVxlan: return 50;  // outer Ethernet+IP+UDP+VXLAN
  }
  return 0;
}

double great_circle_km(const GeoPoint& a, const GeoPoint& b) {
  constexpr double kEarthRadiusKm = 6371.0;
  constexpr double kDegToRad = M_PI / 180.0;
  const double lat1 = a.lat_deg * kDegToRad;
  const double lat2 = b.lat_deg * kDegToRad;
  const double dlat = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlon = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

Duration fiber_delay(double distance_km, double route_stretch) {
  // Light in fiber travels ~204 km/ms.
  constexpr double kFiberKmPerMs = 204.0;
  const double ms = distance_km * route_stretch / kFiberKmPerMs;
  // Floor of 150us models local switching even for co-located sites.
  return std::max<Duration>(from_ms(ms), 150 * kMicrosecond);
}

Status Topology::add_as(AsInfo info) {
  if (as_index_.contains(info.ia)) {
    return Error{Errc::kInvalidArgument,
                 "duplicate AS " + info.ia.to_string()};
  }
  as_index_.emplace(info.ia, ases_.size());
  next_iface_.emplace(info.ia, 1);
  ases_.push_back(std::move(info));
  adjacency_.emplace_back();
  return {};
}

Result<LinkId> Topology::add_link(std::string label, IsdAs a, IsdAs b,
                                  LinkType type, Duration delay,
                                  double bandwidth_bps, IfaceId a_iface,
                                  IfaceId b_iface) {
  if (!as_index_.contains(a) || !as_index_.contains(b)) {
    return Error{Errc::kNotFound, "link endpoints must be registered ASes"};
  }
  if (a == b) {
    return Error{Errc::kInvalidArgument, "self-links are not allowed"};
  }
  if (label_index_.contains(label)) {
    return Error{Errc::kInvalidArgument, "duplicate link label " + label};
  }
  LinkInfo link;
  link.id = static_cast<LinkId>(links_.size());
  link.label = label;
  link.a = a;
  link.b = b;
  link.a_iface = a_iface != 0 ? a_iface : next_iface_[a]++;
  link.b_iface = b_iface != 0 ? b_iface : next_iface_[b]++;
  link.type = type;
  link.delay = delay;
  link.bandwidth_bps = bandwidth_bps;
  label_index_.emplace(std::move(label), link.id);
  adjacency_[as_index_.at(a)].push_back(link.id);
  adjacency_[as_index_.at(b)].push_back(link.id);
  links_.push_back(link);
  return link.id;
}

Status Topology::set_link_encap(std::string_view label, Encap encap) {
  const auto it = label_index_.find(std::string{label});
  if (it == label_index_.end()) {
    return Error{Errc::kNotFound, "no link " + std::string{label}};
  }
  links_[it->second].encap = encap;
  return {};
}

const AsInfo* Topology::find_as(IsdAs ia) const {
  const auto it = as_index_.find(ia);
  return it == as_index_.end() ? nullptr : &ases_[it->second];
}

const LinkInfo* Topology::find_link(LinkId id) const {
  return id < links_.size() ? &links_[id] : nullptr;
}

const LinkInfo* Topology::find_link_by_label(std::string_view label) const {
  const auto it = label_index_.find(std::string{label});
  return it == label_index_.end() ? nullptr : &links_[it->second];
}

std::span<const LinkId> Topology::links_of(IsdAs ia) const {
  const auto it = as_index_.find(ia);
  if (it == as_index_.end()) return {};
  return adjacency_[it->second];
}

std::vector<IsdAs> Topology::core_ases(Isd isd) const {
  std::vector<IsdAs> out;
  for (const auto& as_info : ases_) {
    if (as_info.core && as_info.ia.isd() == isd) out.push_back(as_info.ia);
  }
  return out;
}

std::vector<IsdAs> Topology::children_of(IsdAs parent) const {
  std::vector<IsdAs> out;
  for (const auto& link : links_) {
    if (link.type == LinkType::kParentChild && link.a == parent) {
      out.push_back(link.b);
    }
  }
  return out;
}

const LinkInfo* Topology::link_at(IsdAs ia, IfaceId iface) const {
  for (const LinkId id : links_of(ia)) {
    const LinkInfo& link = links_[id];
    if ((link.a == ia && link.a_iface == iface) ||
        (link.b == ia && link.b_iface == iface)) {
      return &link;
    }
  }
  return nullptr;
}

std::vector<Isd> Topology::isds() const {
  std::vector<Isd> out;
  for (const auto& as_info : ases_) {
    if (std::find(out.begin(), out.end(), as_info.ia.isd()) == out.end()) {
      out.push_back(as_info.ia.isd());
    }
  }
  return out;
}

}  // namespace sciera::topology
