// SCION traceroute: walks a concrete path hop by hop using expiring hop
// limits, revealing which AS answers at each position and its RTT — the
// path-debugging companion to `showpaths` (operators' first tool when a
// Section 4.4 alert fires).
#pragma once

#include "endhost/dispatcher.h"

namespace sciera::endhost {

struct TracerouteHop {
  int position = 0;      // 1-based hop index
  IsdAs ia;              // answering AS
  Duration rtt = 0;
  bool is_destination = false;
  bool timed_out = false;
};

class Traceroute {
 public:
  // The host stack must have no other SCMP receiver attached while a
  // traceroute runs (the utility installs and removes its own).
  explicit Traceroute(HostStack& stack) : stack_(stack) {}

  // Probes `path` toward dst, driving the simulator. One probe per hop,
  // sequentially, like the classic utility.
  [[nodiscard]] std::vector<TracerouteHop> run(
      const dataplane::Address& dst, const controlplane::Path& path);

 private:
  HostStack& stack_;
};

}  // namespace sciera::endhost
