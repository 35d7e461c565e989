// Hercules-style multipath bulk transfer (Section 4.7.1): the Science-DMZ
// workhorse. Given a set of SCION paths, it plans a transfer that uses
// all of them simultaneously — respecting shared-link capacities via
// progressive filling — and models the end-host bottleneck: the legacy
// dispatcher caps receive throughput at a single core, while the XDP
// bypass (and later the dispatcherless stack) scales with the NIC.
#pragma once

#include <vector>

#include "controlplane/combinator.h"
#include "endhost/dispatcher.h"

namespace sciera::endhost {

struct HerculesConfig {
  HostMode receiver_mode = HostMode::kDispatcherless;
  bool use_xdp = false;              // XDP bypass (Section 4.8's band-aid)
};

struct PathAllocation {
  std::size_t path_index = 0;
  double rate_bps = 0;
};

struct TransferReport {
  double aggregate_bps = 0;
  double host_limit_bps = 0;      // receive-side bottleneck
  double network_limit_bps = 0;   // sum of path allocations
  Duration transfer_time = 0;
  std::vector<PathAllocation> allocations;
};

class Hercules {
 public:
  Hercules(const topology::Topology& topo, HerculesConfig config)
      : topo_(topo), config_(config) {}

  // Max-min fair progressive filling of the chosen paths subject to link
  // capacities, capped by the receive-host bottleneck; then the transfer
  // time for `file_bytes`.
  [[nodiscard]] TransferReport plan(
      const std::vector<controlplane::Path>& paths,
      std::uint64_t file_bytes) const;

  // The receive-side packet-rate ceiling, in bit/s for this payload size.
  [[nodiscard]] double host_limit_bps() const;

 private:
  const topology::Topology& topo_;
  HerculesConfig config_;
};

}  // namespace sciera::endhost
