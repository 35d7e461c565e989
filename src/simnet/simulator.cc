#include "simnet/simulator.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace sciera::simnet {

namespace obs_cells {
// Registry cells for one metrics-enabled simulator (see enable_metrics).
struct SimulatorGauges {
  obs::Gauge* pending = nullptr;
  obs::Gauge* executed = nullptr;
  obs::Gauge* overflow = nullptr;
};
}  // namespace obs_cells

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBinaryHeap: return "binary-heap";
    case SchedulerKind::kCalendarQueue: return "calendar-queue";
  }
  return "?";
}

Status validate_scheduler_config(const SchedulerConfig& config) {
  if (config.kind == SchedulerKind::kCalendarQueue) {
    if (config.bucket_width <= 0 ||
        (config.bucket_width & (config.bucket_width - 1)) != 0) {
      return Error{Errc::kInvalidArgument,
                   "calendar bucket_width must be a positive power of two "
                   "nanoseconds, got " +
                       std::to_string(config.bucket_width)};
    }
    if (config.bucket_count < 2 ||
        (config.bucket_count & (config.bucket_count - 1)) != 0) {
      return Error{Errc::kInvalidArgument,
                   "calendar bucket_count must be a power of two >= 2, got " +
                       std::to_string(config.bucket_count)};
    }
  }
  return {};
}

Simulator::EventQueue::EventQueue(const SchedulerConfig& config)
    : kind(config.kind),
      bucket_width(config.bucket_width),
      bucket_count(config.bucket_count) {
  if (kind == SchedulerKind::kCalendarQueue) {
    width_shift = std::countr_zero(static_cast<std::uint64_t>(bucket_width));
    buckets_.resize(bucket_count);
    near_end_ = wheel_start_ + bucket_width;
    horizon_end_ =
        wheel_start_ + bucket_width * static_cast<Duration>(bucket_count);
  }
}

Simulator::Simulator(SchedulerConfig config)
    : config_(config), queue_(config_) {
  SCIERA_CHECK(validate_scheduler_config(config_).ok(),
               "simnet.scheduler_config");
}

Simulator::~Simulator() { delete gauges_; }

void Simulator::enable_metrics(const std::string& label) {
  if (gauges_ != nullptr) return;
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels base{{"sim", registry.instance_label("sim", label)},
                         {"scheduler", scheduler_kind_name(config_.kind)}};
  gauges_ = new obs_cells::SimulatorGauges{
      &registry.gauge("sciera_sim_pending_events", base),
      &registry.gauge("sciera_sim_executed_events", base),
      &registry.gauge("sciera_sim_overflow_events", base)};
  update_gauges();
}

void Simulator::update_gauges() {
  if (gauges_ == nullptr) return;
  gauges_->pending->set(static_cast<std::int64_t>(queue_.size_));
  gauges_->executed->set(static_cast<std::int64_t>(queue_.executed_));
  gauges_->overflow->set(static_cast<std::int64_t>(queue_.far_.size()));
}

std::size_t Simulator::EventQueue::bucket_index(SimTime when) const {
  const auto offset =
      static_cast<std::uint64_t>(when - wheel_start_) >> width_shift;
  return (cursor_ + offset) & (bucket_count - 1);
}

void Simulator::EventQueue::push(Event event) {
  ++size_;
  if (kind == SchedulerKind::kBinaryHeap) {
    heap_.push(std::move(event));
    return;
  }
  // The cursor bucket (and anything the wheel already rotated past, which
  // can only be times >= now_ after a deadline jump) goes straight into
  // the near heap; in-horizon times into their bucket; the rest overflows.
  if (event.when < near_end_) {
    near_.push_back(std::move(event));
    std::push_heap(near_.begin(), near_.end(), Later{});
  } else if (event.when < horizon_end_) {
    buckets_[bucket_index(event.when)].push_back(std::move(event));
    ++buckets_occupied_;
  } else {
    far_.push(std::move(event));
  }
}

void Simulator::EventQueue::advance_cursor() {
  cursor_ = (cursor_ + 1) & (bucket_count - 1);
  wheel_start_ += bucket_width;
  near_end_ += bucket_width;
  horizon_end_ += bucket_width;
  auto& slot = buckets_[cursor_];
  if (!slot.empty()) {
    buckets_occupied_ -= slot.size();
    if (near_.empty()) {
      // The common case (prepare_next only rotates once near_ drains):
      // adopt the whole slot by swap and heapify in O(n). The vectors'
      // capacities circulate between the slot and the near heap, so the
      // steady state allocates nothing.
      std::swap(near_, slot);
      std::make_heap(near_.begin(), near_.end(), Later{});
    } else {
      for (auto& event : slot) {
        near_.push_back(std::move(event));
        std::push_heap(near_.begin(), near_.end(), Later{});
      }
      slot.clear();
    }
  }
  // The rotation uncovered one bucket of new horizon; migrate overflow
  // events that now fit into the wheel.
  while (!far_.empty() && far_.top().when < horizon_end_) {
    Event event = std::move(const_cast<Event&>(far_.top()));
    far_.pop();
    if (event.when < near_end_) {
      near_.push_back(std::move(event));
      std::push_heap(near_.begin(), near_.end(), Later{});
    } else {
      buckets_[bucket_index(event.when)].push_back(std::move(event));
      ++buckets_occupied_;
    }
  }
}

void Simulator::EventQueue::jump_to_far() {
  // Nothing lives in the wheel: rather than rotating bucket by bucket
  // through empty time (a 20-day campaign at 10-minute probe intervals
  // would touch billions of empty slots), teleport the wheel to the
  // earliest overflow event.
  SCIERA_DCHECK(!far_.empty(), "simnet.scheduler_jump_empty");
  const SimTime t = far_.top().when;
  wheel_start_ = t & ~(bucket_width - 1);
  near_end_ = wheel_start_ + bucket_width;
  horizon_end_ =
      wheel_start_ + bucket_width * static_cast<Duration>(bucket_count);
  while (!far_.empty() && far_.top().when < horizon_end_) {
    Event event = std::move(const_cast<Event&>(far_.top()));
    far_.pop();
    if (event.when < near_end_) {
      near_.push_back(std::move(event));
      std::push_heap(near_.begin(), near_.end(), Later{});
    } else {
      buckets_[bucket_index(event.when)].push_back(std::move(event));
      ++buckets_occupied_;
    }
  }
}

bool Simulator::EventQueue::prepare_next() {
  if (kind == SchedulerKind::kBinaryHeap) return !heap_.empty();
  if (size_ == 0) return false;
  while (near_.empty()) {
    if (buckets_occupied_ == 0) jump_to_far();
    if (near_.empty()) advance_cursor();
  }
  return true;
}

SimTime Simulator::EventQueue::peek_next_time() const {
  return kind == SchedulerKind::kBinaryHeap ? heap_.top().when
                                            : near_.front().when;
}

Simulator::Event Simulator::EventQueue::take_next() {
  Event ev;
  if (kind == SchedulerKind::kBinaryHeap) {
    // priority_queue::top() is const; moving through const_cast is fine
    // here because pop() discards the moved-from element immediately.
    ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
  } else {
    std::pop_heap(near_.begin(), near_.end(), Later{});
    ev = std::move(near_.back());
    near_.pop_back();
  }
  --size_;
  // Load-bearing invariant: simulated time never moves backwards. A
  // violation here means the scheduler ordering or an event's timestamp
  // was corrupted, which would silently reorder every downstream
  // experiment.
  SCIERA_CHECK(ev.when >= now_, "simnet.time_monotonic");
  now_ = ev.when;
  ++executed_;
  digest_.fold(static_cast<std::uint64_t>(ev.when));
  digest_.fold(ev.seq);
  digest_.executed = executed_;
  return ev;
}

void Simulator::schedule(SimTime when, Action action) {
  SCIERA_DCHECK(when >= queue_.now_, "simnet.schedule_in_past");
  if (when < queue_.now_) {
    // Release builds clamp instead of dying, but the clamp is audited so
    // determinism sweeps can flag the offending component.
    count_violation("simnet.schedule_in_past");
    when = queue_.now_;
  }
  queue_.push(Event{when, queue_.next_seq_++, std::move(action)});
}

std::uint64_t Simulator::reserve_sequence(std::uint64_t count) {
  const std::uint64_t first = queue_.next_seq_;
  queue_.next_seq_ += count;
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
  SCIERA_CHECK(when >= queue_.now_, "simnet.reserved_in_past");
  if (reserved) {
    it->second = seq + 1;
    if (it->second == it->first) reservations_.erase(it);
  } else {
    seq = queue_.next_seq_++;
  }
  queue_.push(Event{std::max(when, queue_.now_), seq, std::move(action)});
}

void Simulator::schedule_after(Duration delay, Action action) {
  schedule(now() + (delay < 0 ? 0 : delay), std::move(action));
}

void Simulator::run_until(SimTime deadline) {
  while (queue_.prepare_next() && queue_.peek_next_time() <= deadline) {
    Event ev = queue_.take_next();
    ev.action();
  }
  if (queue_.now_ < deadline) queue_.now_ = deadline;
  update_gauges();
}

void Simulator::run_all() {
  while (queue_.prepare_next()) {
    Event ev = queue_.take_next();
    ev.action();
  }
  update_gauges();
}

}  // namespace sciera::simnet
