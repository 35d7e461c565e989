#include "controlplane/control_service_set.h"

#include <string>

#include "common/check.h"

namespace sciera::controlplane {

ControlServiceSet::ControlServiceSet(simnet::Simulator& sim, IsdAs ia,
                                     const topology::Topology& topo,
                                     const SegmentStore& store,
                                     const cppki::Trc* local_trc,
                                     std::size_t replicas)
    : ia_(ia) {
  SCIERA_CHECK(replicas >= 1, "controlplane.empty_service_set");
  replicas_.reserve(replicas);
  for (std::size_t k = 0; k < replicas; ++k) {
    // Replica 0 keeps the legacy instance name so single-replica metric
    // series are byte-identical to the pre-replication stack.
    const std::string name =
        k == 0 ? ia.to_string() : ia.to_string() + "#r" + std::to_string(k);
    replicas_.push_back(std::make_unique<ControlService>(
        sim, ia, topo, store, local_trc, name));
  }
}

PathSet ControlServiceSet::lookup_paths_now(IsdAs dst) {
  for (auto& replica : replicas_) {
    if (replica->available()) return replica->lookup_paths_now(dst);
  }
  // Every replica down: let the primary record the failure.
  return primary()->lookup_paths_now(dst);
}

}  // namespace sciera::controlplane
