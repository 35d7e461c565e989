// ScionNetwork: the facade wiring everything together into a running
// network — per-ISD PKIs with automated certificate renewal, per-AS
// forwarding keys, border routers attached to simulated links, beaconing,
// path servers, and host attachment. This is the object experiments and
// examples instantiate.
#pragma once

#include <map>
#include <memory>

#include "controlplane/beaconing.h"
#include "controlplane/control_service_set.h"
#include "controlplane/path_server.h"
#include "dataplane/local_delivery.h"
#include "dataplane/router.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "simnet/simulator.h"
#include "topology/topology.h"

namespace sciera::controlplane {

// Self-healing control plane (DESIGN.md §10). When enabled, beaconing
// becomes a simulator-driven process: periodic refresh sweeps re-originate
// PCBs over live links, segments carry an expiry and age out when not
// refreshed, and link up/down transitions trigger an incremental sweep
// after a detection delay — a cut circuit's segments are revoked and a
// restored circuit's segments reappear without any manual run_beaconing().
struct SelfHealingOptions {
  bool enabled = false;
  // Period of the timer-driven refresh sweep (beacon re-origination).
  Duration refresh_interval = 2 * kSecond;
  // Lifetime stamped on (re)originated segments; a segment that misses
  // `segment_lifetime / refresh_interval` consecutive sweeps expires.
  Duration segment_lifetime = 5 * kSecond;
  // Delay between a link state transition and the triggered sweep,
  // modelling keepalive/SCMP detection latency.
  Duration detection_delay = 200 * kMillisecond;
};

// Observable state of the healing loop, for reports and tests. Reconverge
// durations are -1 until the first event-triggered sweep completes.
struct HealingSnapshot {
  std::uint64_t sweeps = 0;
  std::uint64_t segments_expired = 0;
  std::uint64_t segments_revoked = 0;
  Duration last_reconverge = -1;
  Duration max_reconverge = -1;
};

class ScionNetwork {
 public:
  struct Options {
    std::uint64_t seed = 0x5C1E2A;
    BeaconingOptions beaconing{};
    // Unused: the simulator takes no configuration. Kept only because the
    // benchmark's traced child copies SoakOptions::scheduler into it.
    simnet::SchedulerConfig scheduler{};
    // Path-service replicas per AS (>= 1). Replica 0 keeps the legacy
    // metric naming, so 1 is byte-identical to the pre-replication stack.
    std::size_t control_replicas = 1;
    SelfHealingOptions healing{};
    // Border-router forwarding configuration (batched fast path, MAC
    // cache). Batched and scalar modes execute identical schedules; the
    // scalar referee exists for equivalence testing.
    dataplane::BorderRouter::Config router{};
  };

  ScionNetwork(topology::Topology topo, Options options);
  explicit ScionNetwork(topology::Topology topo)
      : ScionNetwork(std::move(topo), Options{}) {}

  [[nodiscard]] simnet::Simulator& sim() { return sim_; }
  [[nodiscard]] const topology::Topology& topology() const { return topo_; }
  [[nodiscard]] const Options& options() const { return options_; }

  // --- Control plane -------------------------------------------------------
  [[nodiscard]] cppki::IsdPki* pki(Isd isd);
  [[nodiscard]] const SegmentStore& segments() const { return segments_; }
  // Re-runs beaconing (e.g. after topology/link changes) and flushes the
  // path-server caches.
  void run_beaconing();
  // Runs a beaconing sweep with custom options WITHOUT installing the
  // result — for ablations of selection policy / k-best / depth caps.
  [[nodiscard]] SegmentStore beacon_with(const BeaconingOptions& options) const;
  [[nodiscard]] std::vector<Path> paths(
      IsdAs src, IsdAs dst, const CombinatorOptions& options = {}) const;
  // The AS's path service, built on first use; nullptr for an AS outside
  // the topology or in an ISD without a PKI (one with no core AS).
  [[nodiscard]] ControlServiceSet* control_service_set(IsdAs ia);

  // --- Self-healing ---------------------------------------------------------
  [[nodiscard]] HealingSnapshot healing_snapshot() const;

  // --- Data plane -----------------------------------------------------------
  [[nodiscard]] dataplane::BorderRouter* router(IsdAs ia);
  [[nodiscard]] simnet::Link* link(topology::LinkId id);
  [[nodiscard]] simnet::Link* link(std::string_view label);
  void set_link_up(std::string_view label, bool up);
  [[nodiscard]] const dataplane::FwdKey& fwd_key(IsdAs ia) const {
    return fwd_keys_.at(ia);
  }

  // A path is usable on the data plane iff all its links are up.
  [[nodiscard]] bool path_usable(const Path& path) const;

  // --- Hosts ----------------------------------------------------------------
  // The handler may take the packet (swap it out): it is the router's
  // parked copy (BorderRouter::LocalDelivery).
  using HostHandler =
      std::function<void(dataplane::ScionPacket&, SimTime)>;
  // Registers a host address within its AS; local deliveries for that
  // address are handed to the handler (the end-host stack demuxes further).
  Status register_host(const dataplane::Address& addr, HostHandler handler);
  void unregister_host(const dataplane::Address& addr);
  // Hands a packet from a host to its AS border router.
  Status send_from_host(const dataplane::ScionPacket& packet);
  // UDP deliveries the host stacks have accepted and not yet handed to a
  // socket. They live here, as long as the simulator, not in a stack, so
  // a stack destroyed with deliveries pending leaves them valid.
  [[nodiscard]] dataplane::SlotPool<dataplane::ParkedDatagram>&
  parked_datagrams() {
    return parked_datagrams_;
  }

 private:
  void build_data_plane();
  void dispatch_local(dataplane::ScionPacket& packet, SimTime arrival);
  void start_healing();
  void on_link_state_change(SimTime at);
  void healing_tick();
  void healing_sweep();
  void publish_segment_gauges();

  topology::Topology topo_;
  Options options_;
  simnet::Simulator sim_;
  Rng rng_;
  std::map<Isd, std::unique_ptr<cppki::IsdPki>> pkis_;
  std::unordered_map<IsdAs, dataplane::FwdKey> fwd_keys_;    // lookup-only
  std::unordered_map<IsdAs, std::unique_ptr<dataplane::BorderRouter>>
      routers_;  // lookup-only
  std::vector<std::unique_ptr<simnet::Link>> links_;
  SegmentStore segments_;
  // Ordered: beaconing sweeps walk every service to flush caches, and the
  // set is populated lazily in first-lookup order — hash-order flushes
  // would make the walk depend on which host asked first.
  std::map<IsdAs, std::unique_ptr<ControlServiceSet>> services_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, HostHandler> hosts_;
  dataplane::SlotPool<dataplane::ParkedDatagram> parked_datagrams_;
  std::string metrics_label_;
  // metrics_label_, interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
  obs::Counter* beaconing_runs_ = nullptr;
  obs::Gauge* segments_up_ = nullptr;
  obs::Gauge* segments_core_ = nullptr;
  obs::Gauge* segments_down_ = nullptr;

  // Self-healing state (all inert unless options_.healing.enabled).
  bool change_pending_ = false;
  SimTime earliest_change_at_ = 0;
  Duration last_reconverge_ = -1;
  Duration max_reconverge_ = -1;
  obs::Counter* healing_sweeps_ = nullptr;
  obs::Counter* segments_expired_ = nullptr;
  obs::Counter* segments_revoked_ = nullptr;
  obs::Gauge* reconverge_ms_ = nullptr;
};

}  // namespace sciera::controlplane
