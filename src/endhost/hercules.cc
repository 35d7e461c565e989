#include "endhost/hercules.h"

#include <algorithm>
#include <map>

namespace sciera::endhost {
namespace {

constexpr std::size_t kPayloadBytes = 1200;  // per packet
constexpr double kXdpPpsPerCore = 4'000'000;
constexpr int kCores = 8;
constexpr double kNicBps = 100e9;

}  // namespace

double Hercules::host_limit_bps() const {
  const double bits_per_packet =
      static_cast<double>(kPayloadBytes + 100) * 8.0;  // + headers
  double pps = 0;
  if (config_.use_xdp) {
    // XDP bypasses the dispatcher and scales over cores via RSS... but
    // only because it uses per-queue sockets; the single dispatcher port
    // would pin everything to one queue.
    pps = kXdpPpsPerCore * kCores;
  } else if (config_.receiver_mode == HostMode::kDispatcher) {
    // All SCION traffic enters one UDP port served by one process:
    // "its processing capacity was shared across all SCION applications"
    // and RSS cannot spread one port across cores (Section 4.8). Its
    // single-core capacity is the host stack's default.
    pps = HostStack::Config{}.dispatcher_pps;
  } else {
    // Dispatcherless: per-application sockets, kernel fast path + RSS.
    pps = kXdpPpsPerCore * 0.45 * kCores;
  }
  return std::min(pps * bits_per_packet, kNicBps);
}

TransferReport Hercules::plan(const std::vector<controlplane::Path>& paths,
                              std::uint64_t file_bytes) const {
  TransferReport report;
  report.host_limit_bps = host_limit_bps();
  if (paths.empty()) return report;

  // Progressive filling: raise all unfrozen path rates together; when a
  // link saturates, freeze every path crossing it.
  std::map<topology::LinkId, double> link_capacity;
  for (const auto& path : paths) {
    for (topology::LinkId id : path.links) {
      link_capacity.emplace(id, topo_.find_link(id)->bandwidth_bps);
    }
  }
  std::vector<double> rate(paths.size(), 0.0);
  std::vector<bool> frozen(paths.size(), false);
  for (;;) {
    std::size_t active = 0;
    for (bool f : frozen) {
      if (!f) ++active;
    }
    if (active == 0) break;
    // Headroom per link divided by the number of active paths on it.
    double step = 1e18;
    for (const auto& [link, capacity] : link_capacity) {
      double used = 0;
      std::size_t users = 0;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const bool on_link =
            std::find(paths[i].links.begin(), paths[i].links.end(), link) !=
            paths[i].links.end();
        if (!on_link) continue;
        used += rate[i];
        if (!frozen[i]) ++users;
      }
      if (users == 0) continue;
      step = std::min(step, (capacity - used) / static_cast<double>(users));
    }
    if (step <= 1.0) break;  // numerically saturated
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (!frozen[i]) rate[i] += step;
    }
    // Freeze paths on saturated links.
    for (const auto& [link, capacity] : link_capacity) {
      double used = 0;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (std::find(paths[i].links.begin(), paths[i].links.end(), link) !=
            paths[i].links.end()) {
          used += rate[i];
        }
      }
      if (used >= capacity - 1.0) {
        for (std::size_t i = 0; i < paths.size(); ++i) {
          if (std::find(paths[i].links.begin(), paths[i].links.end(), link) !=
              paths[i].links.end()) {
            frozen[i] = true;
          }
        }
      }
    }
  }

  double network_total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    report.allocations.push_back(PathAllocation{i, rate[i]});
    network_total += rate[i];
  }
  report.network_limit_bps = network_total;
  report.aggregate_bps = std::min(network_total, report.host_limit_bps);
  if (report.aggregate_bps > 0) {
    report.transfer_time = static_cast<Duration>(
        static_cast<double>(file_bytes) * 8.0 / report.aggregate_bps *
        static_cast<double>(kSecond));
  }
  return report;
}

}  // namespace sciera::endhost
