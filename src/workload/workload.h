// Synthetic many-flow workload generator: attaches a fleet of PAN hosts
// across the topology and schedules a randomized traffic matrix on the
// network's simulator. This is the many-flow load the scheduler and
// router tests and the benchmark's soak workloads drive — it has to be
// deterministic for a given seed so their digest comparisons are
// meaningful, which is why every random draw comes from one forked Rng
// stream and no container iteration order leaks into the schedule.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "controlplane/control_plane.h"
#include "endhost/lightning_filter.h"
#include "endhost/pan.h"

namespace sciera::workload {

// First payload byte of every legitimate workload packet. The delivery
// callback uses it to tell legitimate traffic from attack/surge traffic
// (see attack.h for the hostile markers) — legacy payloads are entirely
// marker-filled, so classification never changes a pre-attack schedule.
inline constexpr std::uint8_t kLegitMarker = 0xA5;

// The UDP port every workload host serves on (and attack floods target).
inline constexpr std::uint16_t kWorkloadPort = 40000;

struct WorkloadConfig {
  std::uint64_t seed = 0x10AD;
  // Hosts are spread round-robin over the placement ASes (below).
  std::size_t hosts = 16;
  // Flows pick (src, dst) host pairs; dst is always a different host.
  std::size_t flows = 64;
  std::size_t packets_per_flow = 20;
  std::size_t payload_bytes = 256;
  // Exponential inter-packet spacing within a flow. Must be positive.
  Duration mean_interval = 5 * kMillisecond;
  // Flow starts are spread uniformly over this window.
  Duration start_window = 50 * kMillisecond;
  // Daemon configuration shared by every host (the chaos soak harness
  // A/Bs resilience on/off through this).
  endhost::Daemon::Config daemon{};
  // Placement restriction: hosts attach round-robin to these ASes.
  // Empty (the default) means every AS of the topology. Every entry must
  // name an AS the topology knows — the builder rejects unknown IAs.
  std::vector<IsdAs> ases;
  // End-host stack shared by every host. The attack soak runs hosts in
  // kDispatcher mode so hostile floods contend with legitimate traffic
  // for the one shared queue (Section 4.8) — the axis the in-path filter
  // defends.
  endhost::HostStack::Config stack{};
  // Payload sealing: append a LightningFilter authenticator (one
  // LightningSealer per host, derived from filter_secret and the host's
  // AS) to every payload. The defense A/B seals in BOTH arms so the two
  // arms offer byte-identical traffic.
  bool seal_payloads = false;
  Bytes filter_secret;
  // Install an in-path LightningFilter (one per host, config below) at
  // each host stack's ingress — the defenses-on arm.
  bool install_filters = false;
  endhost::LightningFilter::Config filter{};
};

struct WorkloadReport {  // value snapshot, safe to copy around
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t failover_sends = 0;  // receipts flagged failover
};

// Builds the host fleet and schedules the whole traffic matrix up front;
// the caller then drives net.sim() (run_for/run_all) and reads report().
class TrafficMatrix {
 public:
  // Validated construction, mirroring endhost::PanContext::Builder: the
  // only way to make a matrix. The builder rejects degenerate matrices
  // (fewer than two hosts, zero flows, zero packets per flow, non-positive
  // send rates), placement over ASes the topology does not contain, and
  // sealing or filtering without a filter secret, so a misconfigured
  // experiment fails at build time with a clear error instead of
  // producing an empty or crashing run. build() returns the constructed
  // (not yet launched) matrix.
  class Builder {
   public:
    Builder& net(controlplane::ScionNetwork& net) {
      net_ = &net;
      return *this;
    }
    Builder& config(WorkloadConfig config) {
      config_ = std::move(config);
      return *this;
    }
    [[nodiscard]] Result<std::unique_ptr<TrafficMatrix>> build() const;

   private:
    controlplane::ScionNetwork* net_ = nullptr;
    WorkloadConfig config_{};
  };

  ~TrafficMatrix();
  TrafficMatrix(const TrafficMatrix&) = delete;
  TrafficMatrix& operator=(const TrafficMatrix&) = delete;

  // Attaches hosts (PAN contexts + sockets) and schedules every flow's
  // sends on the network's simulator.
  [[nodiscard]] Status launch();

  [[nodiscard]] WorkloadReport report() const { return report_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] const endhost::Daemon& daemon(std::size_t host) const {
    return *hosts_[host].daemon;
  }
  [[nodiscard]] const endhost::HostStack& stack(std::size_t host) const {
    return hosts_[host].ctx->stack();
  }
  // The host's in-path filter; nullptr when install_filters is off.
  [[nodiscard]] const endhost::LightningFilter* filter(
      std::size_t host) const {
    return hosts_[host].filter.get();
  }
  [[nodiscard]] const dataplane::Address& host_address(std::size_t host) const {
    return hosts_[host].address;
  }

  // Observer invoked on every delivered packet (after the report counter
  // updates): source address, destination host index, delivery time. The
  // soak harness uses it to time the network-wide delivery gaps.
  void set_on_delivery(
      std::function<void(const dataplane::Address&, std::size_t, SimTime)>
          on_delivery) {
    on_delivery_ = std::move(on_delivery);
  }

  // Observer for deliveries whose payload does NOT carry kLegitMarker —
  // attack/surge traffic that made it through to an application socket.
  // Arguments: the payload's marker byte, destination host index, delivery
  // time. Foreign deliveries never touch the legitimate report counters.
  void set_on_foreign_delivery(
      std::function<void(std::uint8_t, std::size_t, SimTime)> on_foreign) {
    on_foreign_delivery_ = std::move(on_foreign);
  }

 private:
  struct Host {
    dataplane::Address address;
    std::unique_ptr<endhost::Daemon> daemon;
    // Declared before ctx: the stack holds a raw pointer to the filter,
    // so the filter must be destroyed after the stack (reverse member
    // order destroys ctx first).
    std::unique_ptr<endhost::LightningFilter> filter;
    std::unique_ptr<endhost::PanContext> ctx;
    std::unique_ptr<endhost::PanSocket> socket;
    // What this host's flows send: the shared payload plus (when sealing)
    // this host's per-AS authenticator — sealed once at launch, zero
    // per-send crypto.
    Bytes send_payload;
  };
  struct Flow {
    std::size_t src = 0;
    std::size_t dst = 0;
  };

  TrafficMatrix(controlplane::ScionNetwork& net, WorkloadConfig config);

  void schedule_flow(const Flow& flow);

  controlplane::ScionNetwork& net_;
  WorkloadConfig config_;
  Rng rng_;
  std::vector<Host> hosts_;
  std::vector<Flow> flows_;
  Bytes payload_;
  WorkloadReport report_;
  std::function<void(const dataplane::Address&, std::size_t, SimTime)>
      on_delivery_;
  std::function<void(std::uint8_t, std::size_t, SimTime)>
      on_foreign_delivery_;
};

}  // namespace sciera::workload
