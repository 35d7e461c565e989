#include "controlplane/beaconing.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/check.h"
#include "crypto/sha256.h"

namespace sciera::controlplane {
namespace {

using topology::LinkId;
using topology::LinkInfo;
using topology::LinkType;

// Depth cap on down-beacon walks through the intra-ISD hierarchy.
constexpr std::size_t kMaxDownDepth = 5;
// Hop-field expiry stamped on every entry (~24h).
constexpr std::uint8_t kHopExpiry = 255;

// Initial beta for a segment, derived from origin and timestamp (the
// origin core AS picks it; it only needs to be unpredictable per segment).
std::uint16_t initial_beta(IsdAs origin, std::uint32_t timestamp,
                           std::uint64_t salt) {
  // Origin, timestamp and salt, big-endian.
  std::array<std::uint8_t, 20> input{};
  const auto put = [&](std::size_t at, std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      input[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * (bytes - 1 - i)));
    }
  };
  put(0, origin.packed(), 8);
  put(8, timestamp, 4);
  put(12, salt, 8);
  const auto digest = crypto::Sha256::hash(input);
  return static_cast<std::uint16_t>((digest[0] << 8) | digest[1]);
}

// The control-plane signing key of `ia`; null when its ISD has no PKI (an
// ISD without a core AS gets none) or the PKI has not enrolled it.
const crypto::KeyPair* signing_key(const std::map<Isd, cppki::IsdPki*>& pkis,
                                   IsdAs ia) {
  const auto it = pkis.find(ia.isd());
  if (it == pkis.end()) return nullptr;
  const auto* creds = it->second->credentials(ia);
  return creds == nullptr ? nullptr : &creds->signing_key;
}

}  // namespace

Beaconing::Beaconing(
    const topology::Topology& topo, const std::map<Isd, cppki::IsdPki*>& pkis,
    const std::unordered_map<IsdAs, dataplane::FwdKey>& fwd_keys)
    : topo_(topo), pkis_(pkis), fwd_keys_(fwd_keys) {}

Pcb Beaconing::build_pcb(const std::vector<LinkId>& links, IsdAs origin,
                         const BeaconingOptions& options,
                         bool add_peer_entries,
                         SignatureMemo& signed_entries) const {
  Pcb pcb;
  pcb.timestamp = kUnixEpochAtSimZero;
  // Salt with the first link id so parallel links yield distinct chains.
  pcb.initial_beta = initial_beta(origin, pcb.timestamp,
                                  links.empty() ? 0 : links.front() + 1);

  // Resolve the AS sequence from the link walk.
  std::vector<IsdAs> ases{origin};
  for (LinkId id : links) {
    const LinkInfo* link = topo_.find_link(id);
    ases.push_back(link->other(ases.back()));
  }

  std::uint16_t beta = pcb.initial_beta;
  const Bytes header = pcb.header_payload();
  BytesView chain = header;
  for (std::size_t i = 0; i < ases.size(); ++i) {
    AsEntry entry;
    entry.ia = ases[i];
    entry.beta = beta;
    entry.hop.exp_time = kHopExpiry;
    entry.hop.cons_ingress =
        i == 0 ? 0 : topo_.find_link(links[i - 1])->iface_of(ases[i]);
    entry.hop.cons_egress =
        i + 1 < ases.size() ? topo_.find_link(links[i])->iface_of(ases[i]) : 0;
    const auto key_it = fwd_keys_.find(entry.ia);
    entry.hop.mac = dataplane::compute_hop_mac(key_it->second, beta,
                                               pcb.timestamp, entry.hop);
    const std::uint16_t beta_after =
        dataplane::chain_beta(beta, entry.hop.mac);

    if (add_peer_entries) {
      for (LinkId lid : topo_.links_of(entry.ia)) {
        const LinkInfo* plink = topo_.find_link(lid);
        if (plink->type != LinkType::kPeering) continue;
        if (options.link_filter && !options.link_filter(lid)) continue;
        PeerEntry peer;
        peer.peer_ia = plink->other(entry.ia);
        peer.local_iface = plink->iface_of(entry.ia);
        peer.remote_iface = plink->iface_of_other(entry.ia);
        peer.hop.peering = true;
        peer.hop.exp_time = kHopExpiry;
        peer.hop.cons_ingress = peer.local_iface;
        peer.hop.cons_egress = entry.hop.cons_egress;
        // Peer hop MACs are computed over the post-main-hop accumulator so
        // entering the segment sideways keeps downstream MACs verifiable.
        peer.hop.mac = dataplane::compute_hop_mac(key_it->second, beta_after,
                                                  pcb.timestamp, peer.hop);
        entry.peers.push_back(peer);
      }
    }

    const Bytes payload = entry.signing_payload(chain);
    const std::string_view payload_key{
        reinterpret_cast<const char*>(payload.data()), payload.size()};
    auto memo = signed_entries.find(payload_key);
    if (memo == signed_entries.end()) {
      // Only an entry not signed yet copies its payload into a key.
      memo = signed_entries.emplace(payload_key, SignedEntry{}).first;
      SignedEntry& fresh = memo->second;
      // Without a key the signature stays zero and verify_pcb rejects it.
      const crypto::KeyPair* key = signing_key(pkis_, entry.ia);
      SCIERA_CHECK(key != nullptr, "controlplane.beacon_signer_unknown");
      if (key != nullptr) {
        fresh.signature = crypto::Ed25519::sign(*key, payload);
      }
      fresh.link = chain_link(payload, fresh.signature);
    }
    const SignedEntry& signed_entry = memo->second;
    entry.signature = signed_entry.signature;
    // Map nodes never move, so the link outlives every later insertion.
    chain = signed_entry.link;
    pcb.entries.push_back(std::move(entry));

    beta = beta_after;
  }
  return pcb;
}

void Beaconing::core_beaconing(SegmentStore& store,
                               const BeaconingOptions& options) const {
  // Deterministic exhaustive exploration of simple core-link walks from
  // each origin, with k-best retention per (origin, terminus).
  struct Candidate {
    std::vector<LinkId> links;
    Duration delay = 0;
  };

  for (const auto& origin_info : topo_.ases()) {
    if (!origin_info.core) continue;
    const IsdAs origin = origin_info.ia;
    std::map<IsdAs, std::vector<Candidate>> per_terminus;
    SignatureMemo signed_entries;

    std::vector<LinkId> walk;
    std::vector<IsdAs> visited{origin};
    Duration delay_acc = 0;

    // Iterative DFS over core links.
    struct Frame {
      IsdAs at;
      std::vector<LinkId> options;
      std::size_t next = 0;
    };
    auto core_links_at = [&](IsdAs at) {
      std::vector<LinkId> out;
      for (LinkId id : topo_.links_of(at)) {
        const LinkInfo* link = topo_.find_link(id);
        if (link->type != LinkType::kCore) continue;
        if (options.link_filter && !options.link_filter(id)) continue;
        const IsdAs other = link->other(at);
        if (std::find(visited.begin(), visited.end(), other) != visited.end())
          continue;
        out.push_back(id);
      }
      return out;
    };

    std::vector<Frame> stack;
    stack.push_back(Frame{origin, core_links_at(origin)});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next >= frame.options.size() ||
          visited.size() > options.max_core_path_length) {
        if (!walk.empty()) {
          delay_acc -= topo_.find_link(walk.back())->delay;
          walk.pop_back();
          visited.pop_back();
        }
        stack.pop_back();
        continue;
      }
      const LinkId id = frame.options[frame.next++];
      const LinkInfo* link = topo_.find_link(id);
      const IsdAs next = link->other(frame.at);
      if (std::find(visited.begin(), visited.end(), next) != visited.end()) {
        continue;
      }
      walk.push_back(id);
      visited.push_back(next);
      delay_acc += link->delay;
      per_terminus[next].push_back(Candidate{walk, delay_acc});
      stack.push_back(Frame{next, core_links_at(next)});
    }

    for (auto& [terminus, candidates] : per_terminus) {
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& x, const Candidate& y) {
                  if (x.links.size() != y.links.size())
                    return x.links.size() < y.links.size();
                  if (x.delay != y.delay) return x.delay < y.delay;
                  return x.links < y.links;
                });
      if (candidates.size() > options.max_core_segments_per_pair) {
        candidates.resize(options.max_core_segments_per_pair);
      }
      for (const auto& cand : candidates) {
        PathSegment segment;
        segment.type = SegType::kCore;
        segment.pcb = build_pcb(cand.links, origin, options,
                                /*add_peer_entries=*/false, signed_entries);
        segment.links = cand.links;
        store.add(std::move(segment));
      }
    }
  }
}

void Beaconing::down_beaconing(SegmentStore& store,
                               const BeaconingOptions& options) const {
  for (const auto& origin_info : topo_.ases()) {
    if (!origin_info.core) continue;
    const IsdAs origin = origin_info.ia;
    SignatureMemo signed_entries;

    // DFS down parent-child links inside the origin's ISD; every prefix of
    // the walk is a segment for the AS it reaches.
    std::vector<LinkId> walk;
    std::vector<IsdAs> visited{origin};

    auto child_links_at = [&](IsdAs at) {
      std::vector<LinkId> out;
      for (LinkId id : topo_.links_of(at)) {
        const LinkInfo* link = topo_.find_link(id);
        if (link->type != LinkType::kParentChild || link->a != at) continue;
        if (options.link_filter && !options.link_filter(id)) continue;
        if (link->b.isd() != origin.isd()) continue;
        if (std::find(visited.begin(), visited.end(), link->b) !=
            visited.end()) {
          continue;
        }
        out.push_back(id);
      }
      return out;
    };

    struct Frame {
      IsdAs at;
      std::vector<LinkId> options;
      std::size_t next = 0;
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{origin, child_links_at(origin)});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next >= frame.options.size() ||
          visited.size() > kMaxDownDepth) {
        if (!walk.empty()) {
          walk.pop_back();
          visited.pop_back();
        }
        stack.pop_back();
        continue;
      }
      const LinkId id = frame.options[frame.next++];
      const LinkInfo* link = topo_.find_link(id);
      const IsdAs child = link->b;
      if (std::find(visited.begin(), visited.end(), child) != visited.end()) {
        continue;
      }
      walk.push_back(id);
      visited.push_back(child);

      const Pcb pcb = build_pcb(walk, origin, options,
                                /*add_peer_entries=*/true, signed_entries);
      // The terminating AS registers the PCB both as its up-segment (at
      // the local path server) and as a down-segment (at the origin core).
      PathSegment up;
      up.type = SegType::kUp;
      up.pcb = pcb;
      up.links = walk;
      store.add(std::move(up));
      PathSegment down;
      down.type = SegType::kDown;
      down.pcb = pcb;
      down.links = walk;
      store.add(std::move(down));

      stack.push_back(Frame{child, child_links_at(child)});
    }
  }
}

SegmentStore Beaconing::run(const BeaconingOptions& options) const {
  SegmentStore store;
  core_beaconing(store, options);
  down_beaconing(store, options);
  return store;
}

}  // namespace sciera::controlplane
