// SCION data-plane packet format: common header, address header, and the
// path header (info fields + hop fields), serialized to real bytes with
// bounds-checked parsing. Layout mirrors the SCION header specification;
// every border router on a path parses these bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/isd_as.h"
#include "common/result.h"

namespace sciera::dataplane {

enum class PathType : std::uint8_t { kEmpty = 0, kScion = 1 };

// Payload protocol numbers (next_hdr).
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint8_t kProtoScmp = 202;

using Mac6 = std::array<std::uint8_t, 6>;

// Info field: per-segment metadata (8 bytes on the wire).
struct InfoField {
  bool construction_dir = true;  // C flag: traversal along beaconing dir
  bool peering = false;          // P flag: segment contains a peering hop
  std::uint16_t seg_id = 0;      // beta accumulator for MAC chaining
  std::uint32_t timestamp = 0;   // segment origination time (unix seconds)

  friend bool operator==(const InfoField&, const InfoField&) = default;
};

// Hop field: one AS crossing (12 bytes on the wire).
struct HopField {
  // Peering hop fields (distributed as PCB peer entries) skip the seg_id
  // chaining step; their MAC is computed over the accumulator value that
  // follows the AS's main hop, so entering a segment sideways through a
  // peering link keeps the rest of the chain verifiable.
  bool peering = false;
  std::uint8_t exp_time = 63;        // expiry, in 1/256ths of 24h from ts
  IfaceId cons_ingress = 0;          // ingress in construction direction
  IfaceId cons_egress = 0;           // egress in construction direction
  Mac6 mac{};

  friend bool operator==(const HopField&, const HopField&) = default;
};

// The standard SCION path: up to 3 segments of hop fields.
struct ScionPath {
  std::uint8_t curr_inf = 0;
  std::uint8_t curr_hf = 0;
  std::array<std::uint8_t, 3> seg_len{0, 0, 0};
  std::vector<InfoField> info;
  std::vector<HopField> hops;

  [[nodiscard]] std::size_t num_segments() const { return info.size(); }
  [[nodiscard]] std::size_t num_hops() const { return hops.size(); }
  [[nodiscard]] bool at_end() const { return curr_hf >= hops.size(); }

  [[nodiscard]] const InfoField& current_info() const { return info[curr_inf]; }
  [[nodiscard]] InfoField& current_info() { return info[curr_inf]; }
  [[nodiscard]] const HopField& current_hop() const { return hops[curr_hf]; }

  // Index of the first hop of segment `seg`.
  [[nodiscard]] std::size_t segment_start(std::size_t seg) const;
  // Segment index that hop `hf` belongs to.
  [[nodiscard]] std::size_t segment_of(std::size_t hf) const;
  // True if the current hop is the last hop of its segment.
  [[nodiscard]] bool at_segment_end() const;

  // Advances to the next hop, bumping curr_inf across segment boundaries.
  void advance();

  // Returns the path reversed for the return direction (segments reversed,
  // hop order flipped, C flags toggled) — how SCMP replies travel back.
  [[nodiscard]] ScionPath reversed() const;

  [[nodiscard]] Status validate() const;

  void serialize(Writer& w) const;
  static Result<ScionPath> parse(Reader& r);
  // Parses into `out`, reusing its info/hops allocations (contents
  // replaced). On error `out` is left in an unspecified valid state.
  static Status parse_into(Reader& r, ScionPath& out);

  friend bool operator==(const ScionPath&, const ScionPath&) = default;
};

// Host address inside an AS (modelled as an IPv4-style 32-bit id).
struct Address {
  IsdAs ia;
  std::uint32_t host = 0;

  friend bool operator==(const Address&, const Address&) = default;
  [[nodiscard]] std::string to_string() const;
};

struct ScionPacket {
  // Common header.
  std::uint8_t traffic_class = 0;
  std::uint32_t flow_id = 0;        // 20 bits on the wire
  std::uint8_t next_hdr = kProtoUdp;
  PathType path_type = PathType::kScion;
  std::uint8_t hop_limit = 64;
  // Address header.
  Address dst;
  Address src;
  // Path header.
  ScionPath path;
  // L4 payload (UDP datagram or SCMP message, already serialized).
  Bytes payload;

  [[nodiscard]] Result<Bytes> serialize() const;
  // Serializes into `out`, reusing its allocation (contents replaced).
  // This is the hot-path form: pooled frame buffers round-trip through
  // here without a per-hop heap allocation.
  [[nodiscard]] Status serialize_into(Bytes& out) const;
  static Result<ScionPacket> parse(BytesView bytes);
  // Parses into `out`, reusing its path/payload allocations — the
  // batched-router twin of serialize_into: a pooled scratch packet
  // round-trips through here with zero per-packet heap allocations.
  // On error `out` is left in an unspecified valid state.
  static Status parse_into(BytesView bytes, ScionPacket& out);

  [[nodiscard]] std::size_t wire_size() const;

  friend bool operator==(const ScionPacket&, const ScionPacket&) = default;
};

// UDP payload helpers (next_hdr == kProtoUdp).
struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Bytes data;

  // One allocation: the buffer is reserved to the datagram's exact size.
  [[nodiscard]] Bytes serialize() const;
  static Result<UdpDatagram> parse(BytesView bytes);
};

// A UDP datagram read in place: the header's ports, and the data as a view
// into the buffer it was read from, valid while that buffer is. Host
// ingress filters and demultiplexes on this before it copies anything.
struct UdpDatagramView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  BytesView data;

  static Result<UdpDatagramView> parse(BytesView bytes);
};

}  // namespace sciera::dataplane
