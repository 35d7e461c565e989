#include "controlplane/beacon.h"

#include <charconv>
#include <string_view>

#include "common/check.h"

namespace sciera::controlplane {
namespace {

constexpr std::string_view kEntryTag = "sciera-pcb-entry-v1";
constexpr std::string_view kHeaderTag = "sciera-pcb-v1";
// What write_hop appends: flags, expiry, both interfaces and the MAC.
constexpr std::size_t kHopBytes = 1 + 1 + 2 + 2 + sizeof(dataplane::Mac6);

void write_hop(Writer& w, const dataplane::HopField& hop) {
  w.u8(hop.peering ? 1 : 0);
  w.u8(hop.exp_time);
  w.u16(hop.cons_ingress);
  w.u16(hop.cons_egress);
  w.raw(BytesView{hop.mac.data(), hop.mac.size()});
}

}  // namespace

Bytes AsEntry::signing_payload(BytesView chain_hash) const {
  // Sized before it is written, so the payload is one allocation: the
  // length-prefixed tag, chain hash, IA, hop, beta and peer count, then
  // each peer's IA, both interfaces and hop.
  Bytes buf;
  buf.reserve(4 + kEntryTag.size() + chain_hash.size() + 8 + kHopBytes + 2 +
              4 + peers.size() * (8 + 2 + 2 + kHopBytes));
  Writer w{std::move(buf)};
  w.str(kEntryTag);
  w.raw(chain_hash);
  w.u64(ia.packed());
  write_hop(w, hop);
  w.u16(beta);
  w.u32(static_cast<std::uint32_t>(peers.size()));
  for (const auto& peer : peers) {
    w.u64(peer.peer_ia.packed());
    w.u16(peer.local_iface);
    w.u16(peer.remote_iface);
    write_hop(w, peer.hop);
  }
  return std::move(w).take();
}

crypto::Sha256::Digest chain_link(
    BytesView signing_payload, const crypto::Ed25519::Signature& signature) {
  crypto::Sha256 h;
  h.update(signing_payload)
      .update(BytesView{signature.data(), signature.size()});
  return h.finish();
}

bool Pcb::contains(IsdAs ia) const {
  for (const auto& entry : entries) {
    if (entry.ia == ia) return true;
  }
  return false;
}

Bytes Pcb::header_payload() const {
  Bytes buf;
  buf.reserve(4 + kHeaderTag.size() + 4 + 2);  // tag, timestamp, beta
  Writer w{std::move(buf)};
  w.str(kHeaderTag);
  w.u32(timestamp);
  w.u16(initial_beta);
  return std::move(w).take();
}

std::string Pcb::fingerprint() const {
  std::string out;
  append_fingerprint(out);
  return out;
}

void Pcb::append_fingerprint(std::string& out) const {
  // "71-2:0:3b[1,3]" is 14 characters; most entries fit in 24.
  out.reserve(out.size() + 24 * entries.size());
  const auto append_iface = [&out](IfaceId iface) {
    char buf[8];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, iface);
    (void)ec;
    out.append(buf, ptr);
  };
  for (const auto& entry : entries) {
    entry.ia.append_to(out);
    out += '[';
    append_iface(entry.hop.cons_ingress);
    out += ',';
    append_iface(entry.hop.cons_egress);
    out += ']';
  }
}

Status verify_pcb(const Pcb& pcb, const KeyLookup& keys) {
  if (pcb.entries.empty()) {
    return Error{Errc::kVerificationFailed, "PCB has no entries"};
  }
  const Bytes header = pcb.header_payload();
  crypto::Sha256::Digest link{};
  BytesView chain = header;
  for (std::size_t i = 0; i < pcb.entries.size(); ++i) {
    const AsEntry& entry = pcb.entries[i];
    const auto* key = keys(entry.ia);
    if (key == nullptr) {
      return Error{Errc::kNotFound,
                   "no verified key for " + entry.ia.to_string()};
    }
    const Bytes payload = entry.signing_payload(chain);
    if (!crypto::Ed25519::verify(*key, payload, entry.signature)) {
      // Adversary-reachable (tampered beacons), so audited rather than
      // fatal; the counter proves the signature chain did its job.
      count_violation("controlplane.pcb_signature_rejected");
      return Error{Errc::kVerificationFailed,
                   "bad PCB entry signature from " + entry.ia.to_string()};
    }
    link = chain_link(payload, entry.signature);
    chain = link;
  }
  return {};
}

}  // namespace sciera::controlplane
