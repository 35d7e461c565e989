#include "simnet/simulator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace sciera::simnet {

void Simulator::enable_metrics(const std::string& label) {
  if (pending_gauge_ != nullptr) return;
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{{"sim", registry.instance_label("sim", label)}};
  pending_gauge_ = &registry.gauge("sciera_sim_pending_events", base);
  executed_gauge_ = &registry.gauge("sciera_sim_executed_events", base);
  update_gauges();
}

void Simulator::update_gauges() {
  if (pending_gauge_ == nullptr) return;
  pending_gauge_->set(static_cast<std::int64_t>(heap_.size()));
  executed_gauge_->set(static_cast<std::int64_t>(executed_));
}

void Simulator::push(SimTime when, std::uint64_t seq, Action action) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(action);
  }
  heap_.push_back(Key{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::run_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Moved out before it runs: the action may schedule, and a push may
  // reallocate slots_.
  const Action action = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  // Load-bearing invariant: simulated time never moves backwards. A
  // violation here means the queue's ordering or an event's timestamp was
  // corrupted, which would silently reorder every downstream experiment.
  SCIERA_CHECK(key.when >= now_, "simnet.time_monotonic");
  now_ = key.when;
  ++executed_;
  digest_.fold(static_cast<std::uint64_t>(key.when));
  digest_.fold(key.seq);
  digest_.executed = executed_;
  action();
}

void Simulator::schedule(SimTime when, Action action) {
  SCIERA_DCHECK(when >= now_, "simnet.schedule_in_past");
  if (when < now_) {
    // Release builds clamp instead of dying, but the clamp is audited so
    // determinism sweeps can flag the offending component.
    count_violation("simnet.schedule_in_past");
    when = now_;
  }
  push(when, next_seq_++, std::move(action));
}

std::uint64_t Simulator::reserve_sequence(std::uint64_t count) {
  const std::uint64_t first = next_seq_;
  next_seq_ += count;
  if (count > 0) reservations_.emplace(first + count, first);
  return first;
}

void Simulator::schedule_reserved(SimTime when, std::uint64_t seq,
                                  Action action) {
  // The only reservation that can hold `seq` is the first one ending
  // after it; it does if `seq` is not below its next unplaced number.
  const auto it = reservations_.upper_bound(seq);
  const bool reserved = it != reservations_.end() && it->second <= seq;
  SCIERA_CHECK(reserved, "simnet.reserved_unknown_seq");
  SCIERA_CHECK(when >= now_, "simnet.reserved_in_past");
  if (reserved) {
    it->second = seq + 1;
    if (it->second == it->first) reservations_.erase(it);
  } else {
    seq = next_seq_++;
  }
  push(std::max(when, now_), seq, std::move(action));
}

void Simulator::schedule_after(Duration delay, Action action) {
  schedule(now() + (delay < 0 ? 0 : delay), std::move(action));
}

void Simulator::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) run_next();
  if (now_ < deadline) now_ = deadline;
  update_gauges();
}

void Simulator::run_all() {
  while (!heap_.empty()) run_next();
  update_gauges();
}

}  // namespace sciera::simnet
