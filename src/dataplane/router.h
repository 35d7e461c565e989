// SCION border router: parses arriving frames (simnet::Frame, one
// serialized packet each), verifies the current hop field (MAC, expiry,
// ingress interface), advances the path pointers, and forwards out the
// egress interface — or delivers locally over the intra-AS IP underlay
// (Section 2, "data plane").
//
// Links deliver through receive_batch, the one entry point: it parses a
// tick's frames into reused scratch, then verifies and forwards them in
// arrival order. With Config::batched off it loops over receive(), the
// scalar referee the equivalence suite compares digests against.
//
// One router instance models an AS's border (all interfaces); SCMP errors
// (e.g. external interface down) travel back to the source along the
// reversed path, exactly like echo replies do.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/hopfield.h"
#include "dataplane/local_delivery.h"
#include "dataplane/packet.h"
#include "dataplane/scmp.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "simnet/link.h"
#include "simnet/simulator.h"

namespace sciera::dataplane {

class BorderRouter final : public simnet::Node {
 public:
  struct Config {
    // Fast path: drain a link's same-tick frame batch as one staged pass
    // (parse all, then verify + forward in arrival order) over reused
    // scratch packets. Scalar mode (false) processes frame by frame,
    // parsing into a fresh packet each time — the referee the batched
    // equivalence suite compares digests against. Both orders schedule
    // identical events: parsing schedules nothing.
    bool batched = true;
    // Overload control (off by default — 0 disables the bucket): bounded
    // ingress admission for data frames arriving from the wire. SCMP is
    // never admission-limited, so a data flood cannot starve the SCMP
    // traffic the self-healing control plane needs to keep converging.
    // Admission drops are silent (no SCMP — an overloaded router must not
    // amplify). Local host injections are not admitted here; the host
    // stack polices those.
    struct Admission {
      double data_pps = 0;  // 0 = unlimited (legacy)
      double data_burst = 256;
    };
    Admission admission{};
    // SCMP error generation rate limit, per offending source AS (token
    // bucket): a forged flood that trips MAC/link errors at line rate must
    // not amplify into an SCMP storm on the return path. 0 = unlimited.
    double scmp_rate_pps = 0;
    double scmp_burst = 8;
  };

  // Registry cells, registered at construction (before the verifier,
  // which counts into two of them) under a per-router instance label
  // derived from the ISD-AS.
  struct Metrics {
    obs::Counter* forwarded = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* injected = nullptr;
    obs::Counter* echo_replies = nullptr;
    obs::Counter* drop_mac = nullptr;
    obs::Counter* drop_expired = nullptr;
    obs::Counter* drop_bad_ingress = nullptr;
    obs::Counter* drop_no_route = nullptr;
    obs::Counter* drop_malformed = nullptr;
    obs::Counter* drop_offline = nullptr;
    obs::Counter* scmp_errors_sent = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batch_packets = nullptr;
    obs::Counter* mac_cache_hits = nullptr;
    obs::Counter* mac_cache_misses = nullptr;
    obs::Counter* admission_dropped_data = nullptr;
    obs::Counter* admission_dropped_control = nullptr;
    obs::Counter* scmp_suppressed = nullptr;
  };

  BorderRouter(simnet::Simulator& sim, IsdAs ia, FwdKey fwd_key,
               Config config);
  BorderRouter(simnet::Simulator& sim, IsdAs ia, FwdKey fwd_key)
      : BorderRouter(sim, ia, fwd_key, Config{}) {}

  [[nodiscard]] IsdAs isd_as() const { return ia_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const FwdKey& fwd_key() const { return verifier_.key(); }
  // Forwarding-key rollover: re-derives the cached verification context
  // (one key schedule) and invalidates every cached MAC.
  void rekey(const FwdKey& fwd_key) { verifier_.rekey(fwd_key); }

  // Wires a local interface id to one side of a link.
  void attach_iface(IfaceId iface, simnet::Link* link, int side);

  // Crash/restart (chaos fault model). A crashed router blackholes every
  // arriving frame and refuses host injections — silently, with no SCMP,
  // which is exactly what distinguishes a dead router from a dead link on
  // the wire. Restart brings forwarding back; any packet that transited
  // during the crash window is state lost with it.
  void crash();
  void restart() { online_ = true; }
  [[nodiscard]] bool online() const { return online_; }

  // Handler for packets addressed to hosts/services in this AS. The packet
  // is the router's parked copy: the handler may take it (swap it out),
  // and whatever it leaves is reused for a later delivery.
  using LocalDelivery =
      std::function<void(ScionPacket& packet, SimTime arrival)>;
  void set_local_delivery(LocalDelivery delivery) {
    local_delivery_ = std::move(delivery);
  }

  // Entry point for packets originated by hosts in this AS. The router
  // processes the first hop (which names this AS) and forwards.
  Status inject(const ScionPacket& packet);

  // The scalar referee: parses one frame into a fresh packet and
  // processes it.
  void receive(const simnet::Frame& frame, const simnet::Arrival& arrival);

  // simnet::Node
  void receive_batch(std::span<const simnet::FramePtr> batch,
                     const simnet::Arrival& arrival) override;

 private:
  struct IfaceBinding {
    simnet::Link* link = nullptr;
    int side = 0;
  };

  // Processes a packet in place (path pointers and seg_id accumulators
  // advance as it transits). The packet is consumed: forwarding
  // serializes it out, local delivery swaps it into a parked slot.
  void process(ScionPacket& packet, IfaceId arrival_iface, bool from_local);
  // Verifies + chains the current hop. Returns the effective egress iface,
  // or an error describing the drop reason.
  Result<IfaceId> process_current_hop(ScionPacket& packet,
                                      IfaceId arrival_iface, bool from_local);
  // Parks the packet (swapped out of `packet`) for the intra-AS hop.
  void deliver_local(ScionPacket& packet);
  void forward(const ScionPacket& packet, IfaceId egress);
  void send_scmp_error(const ScionPacket& offending, ScmpMessage error);
  void answer_echo(const ScionPacket& request);
  [[nodiscard]] std::uint32_t now_unix() const;

  struct TokenBucket {
    double tokens = 0;
    SimTime last = 0;
  };
  // Refills `bucket` to `now` and takes one token; false = out of budget.
  static bool take_token(TokenBucket& bucket, double pps, double burst,
                         SimTime now);
  // Ingress admission of data frames; counts the drop when it refuses.
  [[nodiscard]] bool admit(const ScionPacket& packet);
  // Per-offender SCMP error budget; false = this error must be suppressed.
  [[nodiscard]] bool scmp_budget_ok(IsdAs offender);

  [[nodiscard]] static Metrics register_metrics(IsdAs ia);

  simnet::Simulator& sim_;
  IsdAs ia_;
  Config config_;
  Metrics metrics_;
  HopVerifier verifier_;
  std::unordered_map<IfaceId, IfaceBinding> ifaces_;
  LocalDelivery local_delivery_;
  // name(), interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
  bool online_ = true;
  // Reused batch scratch: one parsed packet per slot (grow-only, so a
  // steady-state batch parses with zero heap allocations) plus a parse
  // success flag per slot.
  std::vector<ScionPacket> batch_scratch_;
  std::vector<std::uint8_t> batch_ok_;
  // A host injection is copied here and processed in place: copy-
  // assignment keeps the scratch's capacity across injections.
  ScionPacket inject_scratch_;
  // Local deliveries in their intra-AS hop. A scheduled delivery captures
  // [this, slot]; the router lives as long as its network's simulator.
  SlotPool<ScionPacket> parked_;
  // Data admission bucket (primed to its burst at construction).
  TokenBucket data_bucket_;
  // Direct-mapped per-offender SCMP budgets: bounded, clock-free state. A
  // slot collision evicts the previous offender and resets its budget —
  // for a defense knob, bounded memory beats per-source exactness.
  struct ScmpSlot {
    std::uint64_t ia = 0;
    TokenBucket bucket;
    bool used = false;
  };
  std::array<ScmpSlot, 64> scmp_slots_{};
};

// Reverses a packet in place for the return direction (echo replies, SCMP
// errors): swaps addresses, reverses the path, resets the pointers. The
// info-field seg_id accumulators are kept as they arrived, which is
// exactly the state the reverse traversal needs.
[[nodiscard]] ScionPacket reverse_packet(const ScionPacket& packet);

}  // namespace sciera::dataplane
