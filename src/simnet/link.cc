#include "simnet/link.h"

#include <algorithm>
#include <cassert>

namespace sciera::simnet {

void Link::attach(int side, Node* node, IfaceId local_iface) {
  assert(side == 0 || side == 1);
  End& end = ends_[static_cast<std::size_t>(side)];
  end = End{};
  end.node = node;
  end.iface = local_iface;
}

void Link::set_label(std::string label) {
  label_ = std::move(label);
  trace_subject_ = sim_.recorder().intern(display_name());
}

const std::string& Link::display_name() const {
  static const std::string kUnnamed = "link";
  return label_.empty() ? kUnnamed : label_;
}

const Link::Metrics& Link::metrics() const {
  if (metrics_.delivered == nullptr) {
    auto& registry = obs::MetricsRegistry::global();
    const obs::Labels base{
        {"link", registry.instance_label("link", display_name())}};
    metrics_.delivered = &registry.counter("sciera_link_delivered_total", base);
    const auto dropped = [&](const char* reason) {
      obs::Labels labels = base;
      labels.emplace_back("reason", reason);
      return &registry.counter("sciera_link_dropped_total", labels);
    };
    metrics_.dropped_down = dropped("down");
    metrics_.dropped_loss = dropped("loss");
    metrics_.dropped_queue = dropped("queue");
  }
  return metrics_;
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up) {
    // Cutting the circuit invalidates everything on the wire right now:
    // drain both directions' pending batches (each frame counted dropped
    // exactly once) and reset the serializer backlog, so an immediate
    // re-up starts from an empty pipe. The already-scheduled delivery
    // events for the drained keys find no batch and do nothing; the
    // epoch bump below keeps any frame that escapes the drain (e.g. one
    // mid-delivery in the running batch) from being resurrected.
    ++down_epoch_;
    for (End& end : ends_) {
      for (TimeBatch& batch : end.batches) {
        for (std::size_t i = 0; i < batch.items.size(); ++i) {
          metrics().dropped_down->inc();
          sim_.trace(obs::TraceType::kPacketDrop, trace_subject_,
                     obs::TraceDetail::kCutInFlight);
        }
        recycle_batch(std::move(batch.items));
      }
      end.batches.clear();
      end.tx_free_at = 0;
    }
  }
  sim_.trace(obs::TraceType::kLinkTransition, trace_subject_,
             up ? obs::TraceDetail::kLinkUp : obs::TraceDetail::kLinkDown);
  if (on_state_change_) on_state_change_(up, sim_.now());
}

void Link::send(int from_side, FramePtr frame) {
  assert(from_side == 0 || from_side == 1);
  End& tx = ends_[static_cast<std::size_t>(from_side)];
  End& rx = ends_[static_cast<std::size_t>(from_side ^ 1)];
  assert(tx.node != nullptr && rx.node != nullptr);

  if (!up_) {
    metrics().dropped_down->inc();
    return;
  }
  if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
    metrics().dropped_loss->inc();
    return;
  }

  const auto serialization = static_cast<Duration>(
      static_cast<double>(frame->bytes.size() + config_.encap_overhead_bytes) * 8.0 /
      config_.bandwidth_bps * static_cast<double>(kSecond));

  // Tail-drop if the egress queue for this direction is over capacity.
  const SimTime now = sim_.now();
  const SimTime start = std::max(now, tx.tx_free_at);
  const auto queued_ahead = serialization > 0
      ? static_cast<std::size_t>((start - now) / std::max<Duration>(serialization, 1))
      : 0;
  if (queued_ahead > config_.queue_capacity) {
    metrics().dropped_queue->inc();
    return;
  }
  tx.tx_free_at = start + serialization;

  Duration delay = config_.propagation_delay;
  if (config_.jitter_sigma > 0) {
    delay = static_cast<Duration>(static_cast<double>(delay) *
                                  rng_.lognormal_median(1.0, config_.jitter_sigma));
  }

  const SimTime deliver_at = tx.tx_free_at + delay;
  // Same-tick batching: frames due at the same instant on this direction
  // ride one scheduler event. The epoch is captured per frame — a down
  // transition can land between two sends of the same tick.
  const int to_side = from_side ^ 1;
  TimeBatch* batch = nullptr;
  for (TimeBatch& candidate : rx.batches) {
    if (candidate.when == deliver_at) {
      batch = &candidate;
      break;
    }
  }
  if (batch == nullptr) {
    TimeBatch& fresh = rx.batches.emplace_back();
    fresh.when = deliver_at;
    if (!spare_batches_.empty()) {
      fresh.items = std::move(spare_batches_.back());
      spare_batches_.pop_back();
    }
    batch = &fresh;
    // The closure captures {this, to_side} only — small enough for the
    // std::function small-buffer optimization, so scheduling a batch
    // does not heap-allocate. The event fires exactly at deliver_at, so
    // the simulator clock recovers the batch key.
    sim_.schedule(deliver_at,
                  [this, to_side] { deliver_batch(to_side, sim_.now()); });
  }
  batch->items.push_back(Pending{std::move(frame), down_epoch_});
}

void Link::deliver_batch(int to_side, SimTime deliver_at) {
  End& rx = ends_[static_cast<std::size_t>(to_side)];
  std::size_t index = rx.batches.size();
  for (std::size_t i = 0; i < rx.batches.size(); ++i) {
    if (rx.batches[i].when == deliver_at) {
      index = i;
      break;
    }
  }
  if (index == rx.batches.size()) return;
  std::vector<Pending> items = std::move(rx.batches[index].items);
  rx.batches[index] = std::move(rx.batches.back());
  rx.batches.pop_back();
  // Filter the batch down to the frames still alive, then hand the
  // survivors to the receiver in one call. Safety net: set_up(false)
  // drains pending batches at the cut, but a cut that lands after this
  // batch was moved out only shows up as an epoch mismatch here.
  delivery_scratch_.clear();
  for (Pending& item : items) {
    if (!up_ || item.epoch != down_epoch_) {
      metrics().dropped_down->inc();
      sim_.trace(obs::TraceType::kPacketDrop, trace_subject_,
                 obs::TraceDetail::kCutInFlight);
      continue;
    }
    metrics().delivered->inc();
    delivery_scratch_.push_back(std::move(item.frame));
  }
  items.clear();
  recycle_batch(std::move(items));
  if (!delivery_scratch_.empty()) {
    rx.node->receive_batch(delivery_scratch_, Arrival{rx.iface, deliver_at});
  }
  // Drop the frame references promptly so pooled frames recycle at the
  // end of the tick, not at the next delivery on this link.
  delivery_scratch_.clear();
}

void Link::recycle_batch(std::vector<Pending> items) {
  // Bounded: more retired vectors than this means a burst already paid
  // its allocations; keeping a few covers the steady state.
  constexpr std::size_t kMaxSpareBatches = 64;
  items.clear();
  if (spare_batches_.size() < kMaxSpareBatches) {
    spare_batches_.push_back(std::move(items));
  }
}

}  // namespace sciera::simnet
