#include "controlplane/combinator.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace sciera::controlplane {
namespace {

// Whether an AS appears twice. A path lists a dozen or so ASes, so a
// quadratic scan beats building a set.
bool has_repeated_as(const std::vector<IsdAs>& ases) {
  for (auto it = ases.begin(); it != ases.end(); ++it) {
    if (std::find(ases.begin(), it, *it) != it) return true;
  }
  return false;
}

}  // namespace

const PathSet& no_paths() {
  static const PathSet kEmpty = std::make_shared<const std::vector<Path>>();
  return kEmpty;
}

std::string Path::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < as_sequence.size(); ++i) {
    if (i > 0) out += " > ";
    out += as_sequence[i].to_string();
  }
  out += strformat(" (%zu hops, %.1f ms)", as_sequence.size(),
                   to_ms(static_rtt));
  return out;
}

double path_disjointness(const Path& a, const Path& b) {
  // Section 5.5: "dividing the number of distinct interfaces by the total
  // number of interfaces for both paths" — |union| / |multiset total|.
  // 1.0 = fully disjoint; identical paths score 0.5; "disjointness 0.7"
  // means 30% of the combined interface occurrences are shared.
  std::set<GlobalIfaceId> in_a(a.interfaces.begin(), a.interfaces.end());
  std::size_t shared = 0;
  const std::size_t total = a.interfaces.size() + b.interfaces.size();
  if (total == 0) return 1.0;
  std::set<GlobalIfaceId> in_b(b.interfaces.begin(), b.interfaces.end());
  for (const auto& gid : in_a) {
    if (in_b.contains(gid)) ++shared;
  }
  return static_cast<double>(total - shared) / static_cast<double>(total);
}

bool Combinator::append_piece(Path& path, const Piece& piece) const {
  const auto& entries = piece.seg->pcb.entries;
  const std::size_t n = entries.size() - 1;
  const std::size_t hops_before = path.dataplane_path.hops.size();

  // Pick the hop field for a traversal position.
  auto hop_at = [&](std::size_t i) {
    if (i == piece.cut && piece.peer_index >= 0) {
      return entries[i].peers[static_cast<std::size_t>(piece.peer_index)].hop;
    }
    return entries[i].hop;
  };

  // Traversal position k visits construction index cut + k along the
  // construction direction, n - k against it.
  const std::size_t count = n + 1 - piece.cut;
  auto index_at = [&](std::size_t k) {
    return piece.along ? piece.cut + k : n - k;
  };

  // Info field.
  dataplane::InfoField info;
  info.construction_dir = piece.along;
  info.timestamp = piece.seg->pcb.timestamp;
  if (piece.along) {
    info.seg_id = piece.peer_index >= 0
                      ? dataplane::chain_beta(entries[piece.cut].beta,
                                              entries[piece.cut].hop.mac)
                      : entries[piece.cut].beta;
  } else {
    info.seg_id = dataplane::chain_beta(entries[n].beta, entries[n].hop.mac);
  }

  // Crossing into this piece over a peering link?
  if (!path.as_sequence.empty() &&
      path.as_sequence.back() != entries[index_at(0)].ia) {
    if (piece.peer_index < 0) return false;
    const auto& peer =
        entries[piece.cut].peers[static_cast<std::size_t>(piece.peer_index)];
    const auto* link =
        topo_.link_at(entries[piece.cut].ia, peer.local_iface);
    if (link == nullptr || peer.peer_ia != path.as_sequence.back()) {
      return false;
    }
    path.interfaces.push_back(GlobalIfaceId{peer.peer_ia, peer.remote_iface});
    path.interfaces.push_back(
        GlobalIfaceId{entries[piece.cut].ia, peer.local_iface});
    path.links.push_back(link->id);
    path.static_rtt += 2 * link->delay;
  }

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = index_at(k);
    const dataplane::HopField hop = hop_at(i);
    if (hop.peering) info.peering = true;
    path.dataplane_path.hops.push_back(hop);
    if (path.as_sequence.empty() || path.as_sequence.back() != entries[i].ia) {
      path.as_sequence.push_back(entries[i].ia);
    }
    // Intra-piece crossing to the next traversal hop.
    if (k + 1 < count) {
      const std::size_t j = index_at(k + 1);
      // Construction-order neighbors: the link between min and min+1.
      const std::size_t lower = std::min(i, j);
      const IfaceId egress_lower = entries[lower].hop.cons_egress;
      const auto* link = topo_.link_at(entries[lower].ia, egress_lower);
      if (link == nullptr) return false;
      const std::size_t upper = lower + 1;
      path.interfaces.push_back(
          GlobalIfaceId{entries[lower].ia, egress_lower});
      path.interfaces.push_back(GlobalIfaceId{
          entries[upper].ia, entries[upper].hop.cons_ingress});
      path.links.push_back(link->id);
      path.static_rtt += 2 * link->delay;
    }
  }

  const std::size_t seg_index = path.dataplane_path.info.size();
  if (seg_index >= 3) return false;
  path.dataplane_path.info.push_back(info);
  path.dataplane_path.seg_len[seg_index] = static_cast<std::uint8_t>(
      path.dataplane_path.hops.size() - hops_before);
  return true;
}

std::vector<Path> Combinator::assemble(
    const std::vector<std::vector<Piece>>& combos, IsdAs src, IsdAs dst,
    const CombinatorOptions& options) const {
  std::vector<Path> paths;
  std::set<std::string> seen;
  // Reused across combinations: only a new path's copy allocates.
  std::string fingerprint;
  for (const auto& combo : combos) {
    if (combo.empty()) continue;
    Path path;
    // Sized once from the pieces: a piece of k hops crosses k - 1 links
    // inside itself, and at most one more joins it to the piece before.
    std::size_t hops = 0;
    for (const auto& piece : combo) {
      hops += piece.seg->pcb.entries.size() - piece.cut;
    }
    path.dataplane_path.info.reserve(combo.size());
    path.dataplane_path.hops.reserve(hops);
    path.as_sequence.reserve(hops);
    path.interfaces.reserve(2 * (hops - 1));
    path.links.reserve(hops - 1);
    bool ok = true;
    for (const auto& piece : combo) {
      if (!append_piece(path, piece)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (path.as_sequence.front() != src || path.as_sequence.back() != dst) {
      continue;
    }
    if (has_repeated_as(path.as_sequence)) continue;  // loop-free check
    if (!path.dataplane_path.validate().ok()) continue;
    // Endpoint intra-AS processing.
    path.static_rtt += 2 * 600 * kMicrosecond;
    fingerprint.clear();
    for (const auto& gid : path.interfaces) {
      gid.append_to(fingerprint);
      fingerprint += ' ';
    }
    if (!seen.insert(fingerprint).second) continue;
    path.fingerprint_ = fingerprint;
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end(), [](const Path& x, const Path& y) {
    if (x.as_sequence.size() != y.as_sequence.size()) {
      return x.as_sequence.size() < y.as_sequence.size();
    }
    if (x.static_rtt != y.static_rtt) return x.static_rtt < y.static_rtt;
    return x.fingerprint() < y.fingerprint();
  });
  if (paths.size() > options.max_paths) paths.resize(options.max_paths);
  return paths;
}

std::vector<Path> Combinator::combine(IsdAs src, IsdAs dst,
                                      const CombinatorOptions& options) const {
  std::vector<std::vector<Piece>> combos;
  if (src == dst) return {};
  const auto* src_info = topo_.find_as(src);
  const auto* dst_info = topo_.find_as(dst);
  if (src_info == nullptr || dst_info == nullptr) return {};

  auto index_of = [](const PathSegment& seg, IsdAs ia) -> int {
    for (std::size_t i = 0; i < seg.pcb.entries.size(); ++i) {
      if (seg.pcb.entries[i].ia == ia) return static_cast<int>(i);
    }
    return -1;
  };

  const auto ups = src_info->core ? std::vector<const PathSegment*>{}
                                  : store_.ups_of(src);
  const auto downs = dst_info->core ? std::vector<const PathSegment*>{}
                                    : store_.downs_to(dst);

  if (src_info->core && dst_info->core) {
    for (const auto* core : store_.cores_from_to(src, dst)) {
      combos.push_back({Piece{core, 0, /*along=*/false, -1}});
    }
  } else if (src_info->core) {
    for (const auto* down : downs) {
      const IsdAs d_core = down->origin();
      const int src_idx = index_of(*down, src);
      if (src_idx >= 0) {
        combos.push_back(
            {Piece{down, static_cast<std::size_t>(src_idx), true, -1}});
        continue;
      }
      for (const auto* core : store_.cores_from_to(src, d_core)) {
        combos.push_back({Piece{core, 0, false, -1}, Piece{down, 0, true, -1}});
      }
    }
  } else if (dst_info->core) {
    for (const auto* up : ups) {
      const IsdAs u_core = up->origin();
      const int dst_idx = index_of(*up, dst);
      if (dst_idx >= 0) {
        combos.push_back(
            {Piece{up, static_cast<std::size_t>(dst_idx), false, -1}});
        continue;
      }
      for (const auto* core : store_.cores_from_to(u_core, dst)) {
        combos.push_back({Piece{up, 0, false, -1}, Piece{core, 0, false, -1}});
      }
    }
  } else {
    for (const auto* up : ups) {
      const IsdAs u_core = up->origin();
      // Destination already on the up segment: single cut segment.
      const int dst_idx = index_of(*up, dst);
      if (dst_idx >= 0) {
        combos.push_back(
            {Piece{up, static_cast<std::size_t>(dst_idx), false, -1}});
      }
      for (const auto* down : downs) {
        const IsdAs d_core = down->origin();
        const int src_idx = index_of(*down, src);
        if (src_idx > 0 && up == ups.front()) {
          // Source already on this down segment (emit once, not per-up).
          combos.push_back(
              {Piece{down, static_cast<std::size_t>(src_idx), true, -1}});
        }
        // Common-AS shortcut below the cores.
        if (options.allow_shortcuts) {
          for (std::size_t i = 1; i < up->pcb.entries.size(); ++i) {
            const IsdAs m = up->pcb.entries[i].ia;
            if (m == src || m == dst) continue;
            const int j = index_of(*down, m);
            if (j <= 0) continue;
            combos.push_back({Piece{up, i, false, -1},
                              Piece{down, static_cast<std::size_t>(j), true, -1}});
          }
        }
        // Peering shortcut: a peer entry on the up side pointing at an AS
        // on the down side (with its reciprocal peer entry).
        if (options.allow_peering) {
          for (std::size_t i = 0; i < up->pcb.entries.size(); ++i) {
            const auto& a_entry = up->pcb.entries[i];
            for (std::size_t pi = 0; pi < a_entry.peers.size(); ++pi) {
              const auto& peer = a_entry.peers[pi];
              const int j = index_of(*down, peer.peer_ia);
              if (j < 0) continue;
              const auto& b_entry =
                  down->pcb.entries[static_cast<std::size_t>(j)];
              for (std::size_t pj = 0; pj < b_entry.peers.size(); ++pj) {
                const auto& back = b_entry.peers[pj];
                if (back.peer_ia != a_entry.ia ||
                    back.local_iface != peer.remote_iface) {
                  continue;
                }
                combos.push_back(
                    {Piece{up, i, false, static_cast<int>(pi)},
                     Piece{down, static_cast<std::size_t>(j), true,
                           static_cast<int>(pj)}});
              }
            }
          }
        }
        // Standard joins.
        if (u_core == d_core) {
          combos.push_back({Piece{up, 0, false, -1}, Piece{down, 0, true, -1}});
        } else {
          for (const auto* core : store_.cores_from_to(u_core, d_core)) {
            combos.push_back({Piece{up, 0, false, -1},
                              Piece{core, 0, false, -1},
                              Piece{down, 0, true, -1}});
          }
        }
      }
    }
  }
  return assemble(combos, src, dst, options);
}

}  // namespace sciera::controlplane
