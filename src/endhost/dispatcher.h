// The end-host packet entry point, in both historical flavors
// (Section 4.8):
//   * kDispatcher      — the legacy shared demultiplexer: every SCION
//                        packet for the host enters one fixed UDP port and
//                        one single-threaded process forwards it to the
//                        right application over a local socket. Capacity
//                        is shared across ALL applications and RSS cannot
//                        spread the load (one port, one queue).
//   * kDispatcherless  — the modern design: each application opens its own
//                        UDP underlay socket; the kernel demuxes by port
//                        and RSS spreads flows across cores.
//
// HostStack also carries the port table the PAN sockets bind into.
#pragma once

#include <functional>
#include <unordered_map>

#include "controlplane/control_plane.h"
#include "dataplane/local_delivery.h"
#include "dataplane/packet.h"
#include "obs/metrics.h"

namespace sciera::endhost {

class LightningFilter;

enum class HostMode { kDispatcher, kDispatcherless };

class HostStack {
 public:
  struct Config {
    HostMode mode = HostMode::kDispatcherless;
    // Dispatcher single-core service capacity (packets/second) shared by
    // every application on the host.
    double dispatcher_pps = 250'000;
    std::size_t dispatcher_queue = 512;
  };

  // Registry cells, registered at construction.
  struct Metrics {
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped_no_port = nullptr;
    obs::Counter* dropped_overload = nullptr;
    obs::Counter* dropped_filtered = nullptr;
  };

  using Receiver = dataplane::UdpReceiver;

  HostStack(controlplane::ScionNetwork& net, dataplane::Address addr,
            Config config);
  HostStack(controlplane::ScionNetwork& net, dataplane::Address addr)
      : HostStack(net, addr, Config{}) {}
  ~HostStack();
  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  [[nodiscard]] const dataplane::Address& address() const { return addr_; }
  [[nodiscard]] HostMode mode() const { return config_.mode; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] controlplane::ScionNetwork& network() { return net_; }

  // Binds a UDP port; fails if taken. Port 0 picks a free ephemeral port
  // (32768-65535, handed out round-robin) and fails once none is free.
  Result<std::uint16_t> bind(std::uint16_t port, Receiver receiver);
  void unbind(std::uint16_t port);

  // Receives SCMP messages addressed to this host (echo replies to app
  // probes, hop-limit-exceeded for traceroute, path-down errors...).
  using ScmpReceiver = std::function<void(const dataplane::ScionPacket& packet,
                                          const dataplane::ScmpMessage& message,
                                          SimTime arrival)>;
  void set_scmp_receiver(ScmpReceiver receiver) {
    scmp_receiver_ = std::move(receiver);
  }

  // Sends a UDP datagram in a SCION packet (applies the host send path).
  Status send(dataplane::ScionPacket packet);

  // In-path LightningFilter (Section 4.7.1 deployed at the end-host
  // ingress): when set, every arriving UDP payload is checked BEFORE it
  // can occupy the dispatcher queue or reach a port — hostile floods are
  // shed ahead of the shared capacity they would otherwise exhaust. SCMP
  // is control traffic and passes unfiltered. The filter must outlive
  // this stack; nullptr uninstalls.
  void set_ingress_filter(LightningFilter* filter) { filter_ = filter; }

 private:
  // Takes the packet (swaps it into a parked slot) when it delivers it.
  void on_local_delivery(dataplane::ScionPacket& packet, SimTime arrival);
  // Models the dispatcher's shared single queue; returns the added delay
  // or nullopt when the queue overflows.
  [[nodiscard]] std::optional<Duration> dispatcher_delay(SimTime now);

  controlplane::ScionNetwork& net_;
  dataplane::Address addr_;
  Config config_;
  // Shared with the deliveries in flight, which outlive an unbind.
  std::unordered_map<std::uint16_t, std::shared_ptr<const Receiver>> ports_;
  ScmpReceiver scmp_receiver_;
  LightningFilter* filter_ = nullptr;
  std::uint16_t next_ephemeral_ = 32768;
  SimTime dispatcher_free_at_ = 0;
  Metrics metrics_;
};

}  // namespace sciera::endhost
