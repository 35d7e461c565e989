// Path combination: joins up-, core-, and down-segments into end-to-end
// forwarding paths, including core joins, common-AS shortcuts and peering
// shortcuts (Section 2: "a collection of path segments typically allows
// for a variety of combinations, including shortcuts and utilization of
// peering links"). Produces ready-to-send data-plane paths plus the
// metadata the measurement tooling needs (AS sequence, globally unique
// interface IDs, link ids, static RTT estimate).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "controlplane/segment.h"
#include "topology/topology.h"

namespace sciera::controlplane {

struct Path {
  dataplane::ScionPath dataplane_path;  // pointers at 0, seg_ids primed
  std::vector<IsdAs> as_sequence;       // src first, dst last
  // Every interface crossed, as globally unique IDs (Section 5.4's
  // disjointness metric operates on these).
  std::vector<GlobalIfaceId> interfaces;
  std::vector<topology::LinkId> links;
  Duration static_rtt = 0;  // 2x propagation, no queueing

  // The path's identity: each interface's GlobalIfaceId::to_string()
  // followed by a space. The combinator computes it once, when it dedups
  // the path; a default-constructed Path has "".
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::string to_string() const;

 private:
  friend class Combinator;
  std::string fingerprint_;
};

// A combined path set as the control service caches it: immutable, and
// shared by that cache, every daemon cache holding the same answer and any
// selection running over it, so handing it on copies no path.
using PathSet = std::shared_ptr<const std::vector<Path>>;

// The shared empty set, answered when nothing can be served.
[[nodiscard]] const PathSet& no_paths();

// Paper metric (Section 5.5): |distinct interfaces| / |total interfaces|
// across two paths.
[[nodiscard]] double path_disjointness(const Path& a, const Path& b);

struct CombinatorOptions {
  std::size_t max_paths = 250;
  bool allow_shortcuts = true;
  bool allow_peering = true;
};

class Combinator {
 public:
  Combinator(const topology::Topology& topo, const SegmentStore& store)
      : topo_(topo), store_(store) {}

  // All loop-free paths from src to dst, sorted by (#hops, RTT, id).
  [[nodiscard]] std::vector<Path> combine(
      IsdAs src, IsdAs dst, const CombinatorOptions& options = {}) const;

 private:
  // A traversal-ordered slice of a segment.
  struct Piece {
    const PathSegment* seg = nullptr;
    std::size_t cut = 0;     // construction index where the slice starts/ends
    bool along = true;       // traversal along construction direction
    // Peer-entry index at the cut hop (-1: use the main hop field).
    int peer_index = -1;
  };

  [[nodiscard]] bool append_piece(Path& path, const Piece& piece) const;
  [[nodiscard]] std::vector<Path> assemble(
      const std::vector<std::vector<Piece>>& combos, IsdAs src, IsdAs dst,
      const CombinatorOptions& options) const;

  const topology::Topology& topo_;
  const SegmentStore& store_;
};

}  // namespace sciera::controlplane
