#include "dataplane/packet.h"

#include <algorithm>

#include "common/strings.h"

namespace sciera::dataplane {

std::size_t ScionPath::segment_start(std::size_t seg) const {
  std::size_t start = 0;
  for (std::size_t i = 0; i < seg; ++i) start += seg_len[i];
  return start;
}

std::size_t ScionPath::segment_of(std::size_t hf) const {
  std::size_t acc = 0;
  for (std::size_t seg = 0; seg < info.size(); ++seg) {
    acc += seg_len[seg];
    if (hf < acc) return seg;
  }
  return info.empty() ? 0 : info.size() - 1;
}

bool ScionPath::at_segment_end() const {
  return curr_hf + std::size_t{1} ==
         segment_start(curr_inf) + seg_len[curr_inf];
}

void ScionPath::advance() {
  ++curr_hf;
  if (curr_inf + std::size_t{1} < info.size() &&
      curr_hf >= segment_start(curr_inf) + seg_len[curr_inf]) {
    ++curr_inf;
  }
}

ScionPath ScionPath::reversed() const {
  ScionPath rev;
  rev.info.assign(info.rbegin(), info.rend());
  for (auto& inf : rev.info) inf.construction_dir = !inf.construction_dir;
  for (std::size_t i = 0; i < info.size(); ++i) {
    rev.seg_len[i] = seg_len[info.size() - 1 - i];
  }
  rev.hops.assign(hops.rbegin(), hops.rend());
  rev.curr_inf = 0;
  rev.curr_hf = 0;
  // seg_id accumulators: for a segment that was traversed C=1 and ended
  // with seg_id beta_end, the reverse traversal (now C=0) starts from the
  // same accumulated value. The forwarding engine updates seg_id in the
  // packet as it travels, so the reversing endpoint simply keeps the
  // arrived-at seg_id values; ScionPacket-level reversal handles that by
  // copying the info fields as they arrived.
  return rev;
}

Status ScionPath::validate() const {
  if (info.empty() || info.size() > 3) {
    return Error{Errc::kParseError, "path must have 1..3 segments"};
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (seg_len[i] == 0) {
      return Error{Errc::kParseError, "empty segment in path"};
    }
    total += seg_len[i];
  }
  for (std::size_t i = info.size(); i < 3; ++i) {
    if (seg_len[i] != 0) {
      return Error{Errc::kParseError, "seg_len set for missing segment"};
    }
  }
  if (total != hops.size()) {
    return Error{Errc::kParseError, "seg_len sum != hop count"};
  }
  if (curr_inf >= info.size() || curr_hf > hops.size()) {
    return Error{Errc::kParseError, "path pointers out of range"};
  }
  return {};
}

void ScionPath::serialize(Writer& w) const {
  // PathMeta (4 bytes): currInf(2b) currHF(6b) rsv(6b) segLen0..2(6b each).
  std::uint32_t meta = 0;
  meta |= static_cast<std::uint32_t>(curr_inf & 0x3) << 30;
  meta |= static_cast<std::uint32_t>(curr_hf & 0x3F) << 24;
  meta |= static_cast<std::uint32_t>(seg_len[0] & 0x3F) << 12;
  meta |= static_cast<std::uint32_t>(seg_len[1] & 0x3F) << 6;
  meta |= static_cast<std::uint32_t>(seg_len[2] & 0x3F);
  w.u32(meta);
  for (const auto& inf : info) {
    std::uint8_t flags = 0;
    if (inf.construction_dir) flags |= 0x01;
    if (inf.peering) flags |= 0x02;
    w.u8(flags);
    w.u8(0);  // reserved
    w.u16(inf.seg_id);
    w.u32(inf.timestamp);
  }
  for (const auto& hop : hops) {
    w.u8(hop.peering ? 0x01 : 0x00);
    w.u8(hop.exp_time);
    w.u16(hop.cons_ingress);
    w.u16(hop.cons_egress);
    w.raw(BytesView{hop.mac.data(), hop.mac.size()});
  }
}

Result<ScionPath> ScionPath::parse(Reader& r) {
  ScionPath path;
  if (auto status = parse_into(r, path); !status.ok()) return status.error();
  return path;
}

Status ScionPath::parse_into(Reader& r, ScionPath& path) {
  path.info.clear();
  path.hops.clear();
  auto meta = r.u32();
  if (!meta) return meta.error();
  if (((*meta >> 18) & 0x3F) != 0) {
    return Error{Errc::kParseError, "reserved path-meta bits set"};
  }
  path.curr_inf = static_cast<std::uint8_t>((*meta >> 30) & 0x3);
  path.curr_hf = static_cast<std::uint8_t>((*meta >> 24) & 0x3F);
  path.seg_len[0] = static_cast<std::uint8_t>((*meta >> 12) & 0x3F);
  path.seg_len[1] = static_cast<std::uint8_t>((*meta >> 6) & 0x3F);
  path.seg_len[2] = static_cast<std::uint8_t>(*meta & 0x3F);
  std::size_t segments = 0;
  std::size_t total_hops = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (path.seg_len[i] == 0) break;
    ++segments;
    total_hops += path.seg_len[i];
  }
  if (segments == 0) return Error{Errc::kParseError, "path has no segments"};
  for (std::size_t i = 0; i < segments; ++i) {
    auto flags = r.u8();
    auto rsv = r.u8();
    auto seg_id = r.u16();
    auto ts = r.u32();
    if (!flags || !rsv || !seg_id || !ts) {
      return Error{Errc::kParseError, "truncated info field"};
    }
    // Strict parsing: unknown flag bits and reserved bytes must be zero,
    // so no byte of the header is outside either the MAC or the parser.
    if ((*flags & ~0x03) != 0 || *rsv != 0) {
      return Error{Errc::kParseError, "reserved info-field bits set"};
    }
    InfoField inf;
    inf.construction_dir = (*flags & 0x01) != 0;
    inf.peering = (*flags & 0x02) != 0;
    inf.seg_id = *seg_id;
    inf.timestamp = *ts;
    path.info.push_back(inf);
  }
  for (std::size_t i = 0; i < total_hops; ++i) {
    auto flags = r.u8();
    auto exp = r.u8();
    auto ing = r.u16();
    auto egr = r.u16();
    auto mac = r.raw_view(6);
    if (!flags || !exp || !ing || !egr || !mac) {
      return Error{Errc::kParseError, "truncated hop field"};
    }
    if ((*flags & ~0x01) != 0) {
      return Error{Errc::kParseError, "reserved hop-field bits set"};
    }
    HopField hop;
    hop.peering = (*flags & 0x01) != 0;
    hop.exp_time = *exp;
    hop.cons_ingress = *ing;
    hop.cons_egress = *egr;
    std::copy(mac->begin(), mac->end(), hop.mac.begin());
    path.hops.push_back(hop);
  }
  return path.validate();
}

std::string Address::to_string() const {
  return ia.to_string() + "," + strformat("%u.%u.%u.%u", (host >> 24) & 0xFF,
                                          (host >> 16) & 0xFF,
                                          (host >> 8) & 0xFF, host & 0xFF);
}

Result<Bytes> ScionPacket::serialize() const {
  Bytes out;
  if (auto status = serialize_into(out); !status.ok()) return status.error();
  return out;
}

Status ScionPacket::serialize_into(Bytes& out) const {
  if (path_type == PathType::kScion) {
    if (auto status = path.validate(); !status.ok()) return status;
  }
  Writer w{std::move(out)};
  // Common header (12 bytes): version(4b)|tc(8b)|flowid(20b), next_hdr,
  // hop_limit, path_type, payload_len, reserved.
  std::uint32_t vtf = (static_cast<std::uint32_t>(traffic_class) << 20) |
                      (flow_id & 0xFFFFF);
  w.u32(vtf);
  w.u8(next_hdr);
  w.u8(hop_limit);
  w.u8(static_cast<std::uint8_t>(path_type));
  w.u8(0);  // reserved
  w.u32(static_cast<std::uint32_t>(payload.size()));
  // Address header: dst IA, src IA, dst host, src host.
  w.u64(dst.ia.packed());
  w.u64(src.ia.packed());
  w.u32(dst.host);
  w.u32(src.host);
  if (path_type == PathType::kScion) path.serialize(w);
  w.raw(payload);
  out = std::move(w).take();
  return {};
}

Result<ScionPacket> ScionPacket::parse(BytesView bytes) {
  ScionPacket pkt;
  if (auto status = parse_into(bytes, pkt); !status.ok()) {
    return status.error();
  }
  return pkt;
}

Status ScionPacket::parse_into(BytesView bytes, ScionPacket& pkt) {
  Reader r{bytes};
  auto vtf = r.u32();
  auto next = r.u8();
  auto hop_limit = r.u8();
  auto ptype = r.u8();
  auto rsv = r.u8();
  auto payload_len = r.u32();
  if (!vtf || !next || !hop_limit || !ptype || !rsv || !payload_len) {
    return Error{Errc::kParseError, "truncated common header"};
  }
  if (*rsv != 0 || (*vtf >> 28) != 0) {
    return Error{Errc::kParseError, "reserved common-header bits set"};
  }
  pkt.traffic_class = static_cast<std::uint8_t>((*vtf >> 20) & 0xFF);
  pkt.flow_id = *vtf & 0xFFFFF;
  pkt.next_hdr = *next;
  pkt.hop_limit = *hop_limit;
  if (*ptype > static_cast<std::uint8_t>(PathType::kScion)) {
    return Error{Errc::kParseError, "unknown path type"};
  }
  pkt.path_type = static_cast<PathType>(*ptype);
  auto dst_ia = r.u64();
  auto src_ia = r.u64();
  auto dst_host = r.u32();
  auto src_host = r.u32();
  if (!dst_ia || !src_ia || !dst_host || !src_host) {
    return Error{Errc::kParseError, "truncated address header"};
  }
  pkt.dst = Address{IsdAs::from_packed(*dst_ia), *dst_host};
  pkt.src = Address{IsdAs::from_packed(*src_ia), *src_host};
  if (pkt.path_type == PathType::kScion) {
    if (auto status = ScionPath::parse_into(r, pkt.path); !status.ok()) {
      return status;
    }
  } else {
    // A reused scratch packet may carry a stale path; an empty-path
    // parse must leave the same state a freshly parsed packet would.
    pkt.path = ScionPath{};
  }
  auto payload = r.raw_view(*payload_len);
  if (!payload) return payload.error();
  pkt.payload.assign(payload->begin(), payload->end());
  if (r.remaining() != 0) {
    return Error{Errc::kParseError, "trailing bytes after payload"};
  }
  return {};
}

std::size_t ScionPacket::wire_size() const {
  std::size_t size = 12 + 24;  // common + address headers
  if (path_type == PathType::kScion) {
    size += 4 + path.info.size() * 8 + path.hops.size() * 12;
  }
  return size + payload.size();
}

namespace {
constexpr std::size_t kUdpHeaderSize = 8;  // src port, dst port, length
}  // namespace

Bytes UdpDatagram::serialize() const {
  Bytes out;
  out.reserve(kUdpHeaderSize + data.size());
  Writer w{std::move(out)};
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(static_cast<std::uint32_t>(data.size()));
  w.raw(data);
  return std::move(w).take();
}

Result<UdpDatagram> UdpDatagram::parse(BytesView bytes) {
  auto view = UdpDatagramView::parse(bytes);
  if (!view) return view.error();
  return UdpDatagram{view->src_port, view->dst_port,
                     Bytes{view->data.begin(), view->data.end()}};
}

Result<UdpDatagramView> UdpDatagramView::parse(BytesView bytes) {
  Reader r{bytes};
  auto src = r.u16();
  auto dst = r.u16();
  auto len = r.u32();
  if (!src || !dst || !len) return Error{Errc::kParseError, "short UDP header"};
  auto data = r.raw_view(*len);
  if (!data) return data.error();
  return UdpDatagramView{*src, *dst, *data};
}

}  // namespace sciera::dataplane
