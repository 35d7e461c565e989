// Path segments: PCBs that have been registered at path servers. A PCB
// terminating at AS X becomes an up-segment for X (registered locally)
// and/or a down-segment for X (registered at the origin's core path
// server); PCBs between core ASes become core segments.
#pragma once

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/time.h"
#include "controlplane/beacon.h"
#include "topology/topology.h"

namespace sciera::controlplane {

enum class SegType : std::uint8_t { kUp = 0, kCore = 1, kDown = 2 };

[[nodiscard]] const char* seg_type_name(SegType type);

struct PathSegment {
  SegType type = SegType::kUp;
  Pcb pcb;
  // Topology links the PCB walked over, in construction order. Lets the
  // self-healing sweep revoke segments that traverse a cut circuit
  // without re-deriving the walk from interface ids.
  std::vector<topology::LinkId> links;
  // Absolute sim time after which the segment is no longer served;
  // 0 = never expires (one-shot beaconing keeps the legacy behavior).
  SimTime expires_at = 0;

  [[nodiscard]] IsdAs origin() const { return pcb.origin(); }
  [[nodiscard]] IsdAs terminus() const { return pcb.terminus(); }
  [[nodiscard]] std::string fingerprint() const {
    std::string out{seg_type_name(type)};
    out += ':';
    pcb.append_fingerprint(out);
    return out;
  }
};

// Outcome of one refresh sweep: how the store changed.
struct RefreshDelta {
  std::size_t refreshed = 0;  // existing segments whose expiry was extended
  std::size_t added = 0;      // newly learned segments
  std::size_t expired = 0;    // dropped: not re-originated and past expiry
  std::size_t revoked = 0;    // dropped: traverse a link that is down
};

// Segment database used both by path servers and the combinator.
class SegmentStore {
 public:
  // Appends `segment` unless one with the same fingerprint (type and
  // interface chain) is already stored; the first copy wins.
  void add(PathSegment segment);

  // Up-segments for an AS: segments whose terminus is `leaf`.
  [[nodiscard]] std::vector<const PathSegment*> ups_of(IsdAs leaf) const;
  // Down-segments toward an AS.
  [[nodiscard]] std::vector<const PathSegment*> downs_to(IsdAs leaf) const;
  // Core segments usable to travel from core `from` to core `to`: the
  // construction origin is `to` and the terminus is `from` (core segments
  // are traversed against construction direction).
  [[nodiscard]] std::vector<const PathSegment*> cores_from_to(IsdAs from,
                                                              IsdAs to) const;
  // All core segments originated by `origin`.
  [[nodiscard]] std::vector<const PathSegment*> cores_of(IsdAs origin) const;

  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  [[nodiscard]] const std::vector<PathSegment>& all() const {
    return segments_;
  }
  [[nodiscard]] std::size_t count(SegType type) const;

  // Drops segments whose expires_at is set and <= now. Returns how many
  // were removed. Relative order of survivors is preserved.
  std::size_t prune_expired(SimTime now);

  // One self-healing sweep: merges a freshly beaconed store into this one.
  //  - A current segment re-originated in `fresh` (same fingerprint) has
  //    its expiry extended to `new_expiry` (refreshed).
  //  - A current segment traversing any link for which `link_up` returns
  //    false is dropped (revoked). A null predicate revokes nothing.
  //  - A current segment absent from `fresh` with expires_at <= now is
  //    dropped (expired); if still within its lifetime it is kept, so a
  //    transient beaconing gap does not instantly erase the path set.
  //  - Segments only in `fresh` are appended with `new_expiry` (added).
  // Ordering is deterministic: surviving segments keep their relative
  // order, fresh additions follow in beaconing order.
  RefreshDelta refresh(const SegmentStore& fresh, SimTime now,
                       SimTime new_expiry,
                       const std::function<bool(topology::LinkId)>& link_up);

 private:
  std::vector<PathSegment> segments_;
  // Fingerprints of exactly the segments in segments_ (membership only; its
  // iteration order is never consulted), so add() dedups in O(1).
  std::unordered_set<std::string> fingerprints_;
};

}  // namespace sciera::controlplane
