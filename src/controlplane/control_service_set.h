// Replicated path service for an AS: N independent ControlService
// replicas sharing the segment store, each with its own cache,
// availability fault hook, and metric series. Replica 0 is the
// "primary" and keeps the legacy single-service metric naming; replica k
// is labelled "<ia>#rk". Clients (endhost::Daemon) fail over across
// replicas in deterministic index order — the set itself provides a
// simple first-available sync lookup for infrastructure tooling.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "controlplane/path_server.h"

namespace sciera::controlplane {

class ControlServiceSet {
 public:
  ControlServiceSet(simnet::Simulator& sim, IsdAs ia,
                    const topology::Topology& topo, const SegmentStore& store,
                    const cppki::Trc* local_trc, std::size_t replicas);

  [[nodiscard]] IsdAs isd_as() const { return ia_; }
  [[nodiscard]] std::size_t size() const { return replicas_.size(); }
  [[nodiscard]] ControlService* replica(std::size_t index) {
    return index < replicas_.size() ? replicas_[index].get() : nullptr;
  }
  [[nodiscard]] ControlService* primary() { return replicas_.front().get(); }

  // Sync lookup with replica failover: asks the first available replica
  // in index order and returns its shared set. With every replica down it
  // charges the miss to the primary (one dropped lookup) and returns
  // no_paths().
  [[nodiscard]] PathSet lookup_paths_now(IsdAs dst);

  void flush_caches() {
    for (auto& replica : replicas_) replica->flush_cache();
  }

  // Aggregates across replicas.
  [[nodiscard]] std::uint64_t lookups_dropped() const;
  [[nodiscard]] std::uint64_t lookups_total() const;

 private:
  IsdAs ia_;
  std::vector<std::unique_ptr<ControlService>> replicas_;
};

}  // namespace sciera::controlplane
