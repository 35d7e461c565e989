// Duplex point-to-point link with propagation delay, serialization at a
// configured bandwidth, bounded egress queues, optional jitter/loss, and an
// up/down state driven by failure schedules. Models the L2 circuits
// (VLANs/MPLS) that carry SCIERA's inter-AS connectivity. A link carries
// frames (node.h): it takes each by move, and hands every frame due at one
// instant to the receiver in one receive_batch call. A link records its
// transitions and in-flight drops in its simulator's flight recorder.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "simnet/node.h"
#include "simnet/simulator.h"

namespace sciera::simnet {

struct LinkConfig {
  Duration propagation_delay = 5 * kMillisecond;  // one-way
  double bandwidth_bps = 10e9;
  // Log-normal multiplicative jitter sigma applied to each traversal;
  // 0 disables jitter.
  double jitter_sigma = 0.0;
  double loss_probability = 0.0;
  // Egress queue bound per direction, in packets, on top of the one being
  // serialized. Exceeding it drops the packet (tail drop).
  std::size_t queue_capacity = 256;
  // Bytes each frame carries on the wire beyond its packet: the circuit's
  // encapsulation, plus the 28-byte IP-UDP underlay that ScionNetwork
  // adds for every link it builds.
  std::size_t encap_overhead_bytes = 4;
};

class Link {
 public:
  // Registry cells, registered on first use (set_label first, or the
  // series is named "link", "link#2", ...).
  struct Metrics {
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped_down = nullptr;
    obs::Counter* dropped_loss = nullptr;
    obs::Counter* dropped_queue = nullptr;
  };

  Link(Simulator& sim, LinkConfig config, Rng jitter_rng)
      : sim_(sim),
        config_(config),
        rng_(jitter_rng),
        trace_subject_(sim.recorder().intern(display_name())) {}

  // Attaches endpoint `side` (0 or 1). The owner names its end of the link
  // with its own interface id.
  void attach(int side, Node* node, IfaceId local_iface);

  // Names the link's metric series after the topology label. Must be set
  // before the first send (once the series is registered the name sticks);
  // unnamed links register as "link", "link#2", ...
  void set_label(std::string label);

  // Sends from endpoint `from_side` to the opposite endpoint.
  void send(int from_side, FramePtr frame);

  // Admin state. Taking the link down cancels every frame currently
  // serialized or propagating on the circuit at the moment of the cut
  // (counted as dropped_down) and clears the serializer backlog: cutting
  // an L2 circuit loses what is on the wire, and a re-up starts from an
  // empty pipe — cancelled frames must not delay, tail-drop, or be
  // double-counted against traffic sent after the link recovers.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  // Admin-state observer: invoked synchronously from set_up on every real
  // transition (after the link's own cut bookkeeping), carrying the new
  // state and the sim time of the change. The self-healing control plane
  // hooks this to drive link-state detection; at most one observer.
  using StateObserver = std::function<void(bool up, SimTime at)>;
  void set_on_state_change(StateObserver observer) {
    on_state_change_ = std::move(observer);
  }

  // Runtime impairment knobs (chaos loss/jitter storms). Affect frames
  // sent after the call; frames already on the wire keep the conditions
  // they were sent under.
  void set_loss_probability(double probability) {
    config_.loss_probability = probability;
  }
  void set_jitter_sigma(double sigma) { config_.jitter_sigma = sigma; }

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] const Metrics& metrics() const;
  [[nodiscard]] Node* peer_of(int side) const { return ends_[side ^ 1].node; }
  [[nodiscard]] IfaceId iface_of(int side) const {
    return ends_[static_cast<std::size_t>(side)].iface;
  }

 private:
  // One frame waiting for its delivery tick, with the down-epoch it was
  // sent under (dropped on mismatch when the tick fires).
  struct Pending {
    FramePtr frame;
    std::uint64_t epoch = 0;
  };

  // Frames due at one delivery instant. Kept in a flat vector (a handful
  // of in-flight ticks per direction at most): exact-key linear scan, and
  // retired item vectors recycle through spare_batches_ so steady-state
  // batching does not allocate.
  struct TimeBatch {
    SimTime when = 0;
    std::vector<Pending> items;
  };

  struct End {
    Node* node = nullptr;
    IfaceId iface = 0;
    // Time the serializer for this direction becomes free.
    SimTime tx_free_at = 0;
    // Same-tick delivery batching: frames due at the same instant share
    // one scheduler event instead of one event each. Keyed by delivery
    // time; the simulator event for a key fires exactly once.
    std::vector<TimeBatch> batches;
  };

  // Fires every frame batched for `deliver_at` toward endpoint `to_side`.
  void deliver_batch(int to_side, SimTime deliver_at);

  // Returns a retired per-tick item vector to the spare pool (capacity
  // kept) so the next batch reuses it.
  void recycle_batch(std::vector<Pending> items);

  [[nodiscard]] const std::string& display_name() const;

  // label_, metrics_, and on_state_change_ are wiring set before traffic
  // flows.
  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  std::array<End, 2> ends_{};
  std::string label_;
  // display_name(), interned for the flight recorder.
  obs::TraceId trace_subject_ = 0;
  mutable Metrics metrics_;
  bool up_ = true;
  // Bumped on every up->down transition; deliveries scheduled before the
  // cut carry the epoch they were sent under and are dropped on mismatch.
  std::uint64_t down_epoch_ = 0;
  // Capacity-recycling pools for the delivery path: retired per-tick item
  // vectors, and the scratch the survivors of a batch are handed to the
  // receiver in. Cleared after every delivery; never shrunk.
  std::vector<std::vector<Pending>> spare_batches_;
  std::vector<FramePtr> delivery_scratch_;
  StateObserver on_state_change_;
};

}  // namespace sciera::simnet
