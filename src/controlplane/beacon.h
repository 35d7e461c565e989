// Path-segment construction beacons (PCBs). Core ASes originate PCBs and
// every AS on the way appends a signed entry containing its hop field
// (Section 2, "beaconing"). Signatures cover the whole upstream chain, so
// a tampered entry anywhere invalidates the beacon.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/isd_as.h"
#include "common/result.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "dataplane/hopfield.h"

namespace sciera::controlplane {

// A peering offer attached to an AS entry: "you may enter/leave the
// segment at this AS through this peering link".
struct PeerEntry {
  IsdAs peer_ia;
  IfaceId local_iface = 0;   // this AS's interface on the peering link
  IfaceId remote_iface = 0;  // the peer's interface (bookkeeping)
  dataplane::HopField hop;   // peering hop field (hop.peering == true)
};

struct AsEntry {
  IsdAs ia;
  dataplane::HopField hop;  // main hop field for this AS
  // Accumulator value the MAC was computed with; carried so path servers
  // and the combinator can splice segments mid-way (shortcuts).
  std::uint16_t beta = 0;
  std::vector<PeerEntry> peers;
  crypto::Ed25519::Signature signature{};

  // Canonical bytes covered by this entry's signature (excluding the
  // signature itself); `chain_hash` binds all upstream entries.
  [[nodiscard]] Bytes signing_payload(BytesView chain_hash) const;
};

// Hash of a signed entry, input to the next link of the chain: SHA-256
// over the entry's signing payload followed by its signature.
[[nodiscard]] crypto::Sha256::Digest chain_link(
    BytesView signing_payload, const crypto::Ed25519::Signature& signature);

struct Pcb {
  std::uint32_t timestamp = 0;     // origination time (unix seconds)
  std::uint16_t initial_beta = 0;  // beta_0 of the segment's MAC chain
  std::vector<AsEntry> entries;    // construction order; [0] is the origin

  [[nodiscard]] IsdAs origin() const { return entries.front().ia; }
  [[nodiscard]] IsdAs terminus() const { return entries.back().ia; }
  [[nodiscard]] std::size_t length() const { return entries.size(); }
  [[nodiscard]] bool contains(IsdAs ia) const;

  [[nodiscard]] Bytes header_payload() const;

  // Stable identity: origin, terminus and the interface chain.
  [[nodiscard]] std::string fingerprint() const;
  // Appends the fingerprint() text to `out`, in one reservation.
  void append_fingerprint(std::string& out) const;
};

// Key/cert lookup used during PCB verification.
using KeyLookup =
    std::function<const crypto::Ed25519::PublicKey*(IsdAs as)>;

// Verifies every entry's signature against the chain. Does not check hop
// MACs (those are AS-secret-keyed and checked by routers on forwarding).
[[nodiscard]] Status verify_pcb(const Pcb& pcb, const KeyLookup& keys);

}  // namespace sciera::controlplane
