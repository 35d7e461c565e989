// The beaconing process (Section 2): core ASes originate PCBs over core
// links (inter-ISD included) to build core segments, and originate
// intra-ISD PCBs down parent-child links to build up-/down-segments.
// Every entry is signed with the AS's control-plane key and carries a
// hop field MAC'd with the AS's forwarding key; peering links are
// announced as peer entries on down-beacons.
//
// Faithfulness note (see DESIGN.md): propagation runs as deterministic
// rounds over the topology graph rather than as timed PCB packets — the
// paper does not evaluate beacon timing, and this keeps 20-day campaign
// replays fast while exercising identical segment-construction code.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "controlplane/segment.h"
#include "cppki/ca.h"
#include "crypto/sha256.h"
#include "topology/topology.h"

namespace sciera::controlplane {

struct BeaconingOptions {
  // k-best selection: core segments kept per (origin, terminus) pair.
  std::size_t max_core_segments_per_pair = 24;
  std::size_t max_core_path_length = 6;  // in ASes
  // Beacons only walk links for which this returns true; null = all links.
  // The self-healing sweep passes the live-link predicate so segments over
  // cut circuits are never re-originated.
  std::function<bool(topology::LinkId)> link_filter;
};

class Beaconing {
 public:
  Beaconing(const topology::Topology& topo,
            const std::map<Isd, cppki::IsdPki*>& pkis,
            const std::unordered_map<IsdAs, dataplane::FwdKey>& fwd_keys);

  // Runs a full beaconing sweep and returns the resulting segments. Every
  // sweep signs its entries afresh, as a real control plane re-signs its
  // beacons every interval; no signature is reused across calls.
  [[nodiscard]] SegmentStore run(const BeaconingOptions& options = {}) const;

 private:
  struct LinkStep {
    topology::LinkId link;
    IsdAs next;
  };

  // One distinct entry's signature and the chain link it yields (SHA-256
  // over payload and signature, the next entry's chain hash).
  struct SignedEntry {
    crypto::Ed25519::Signature signature{};
    crypto::Sha256::Digest link{};
  };
  // The entries signed so far for one origin's beacons in this sweep,
  // keyed by the exact signed payload. Walks from one origin that share a
  // prefix carry byte-identical entries for it (the payload commits to the
  // signer and, through the chain hash, to the header and every upstream
  // entry), and Ed25519 is deterministic, so an entry is signed and its
  // chain link hashed once per sweep. Transparent, so a lookup takes a
  // view of the payload and only a new entry copies it into a key.
  using SignatureMemo = std::map<std::string, SignedEntry, std::less<>>;

  [[nodiscard]] Pcb build_pcb(const std::vector<topology::LinkId>& links,
                              IsdAs origin, const BeaconingOptions& options,
                              bool add_peer_entries,
                              SignatureMemo& signed_entries) const;
  void core_beaconing(SegmentStore& store,
                      const BeaconingOptions& options) const;
  void down_beaconing(SegmentStore& store,
                      const BeaconingOptions& options) const;

  const topology::Topology& topo_;
  const std::map<Isd, cppki::IsdPki*>& pkis_;
  const std::unordered_map<IsdAs, dataplane::FwdKey>& fwd_keys_;
};

}  // namespace sciera::controlplane
