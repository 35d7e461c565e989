#include "obs/flight_recorder.h"

#include <algorithm>

namespace sciera::obs {

const char* trace_type_name(TraceType type) {
  switch (type) {
    case TraceType::kPacketHop: return "packet_hop";
    case TraceType::kPacketDrop: return "packet_drop";
    case TraceType::kScmpEmitted: return "scmp_emitted";
    case TraceType::kBeaconOriginated: return "beacon_originated";
    case TraceType::kPathLookup: return "path_lookup";
    case TraceType::kPathDown: return "path_down";
    case TraceType::kLinkTransition: return "link_transition";
    case TraceType::kProbeBurst: return "probe_burst";
    case TraceType::kChaosInject: return "chaos_inject";
    case TraceType::kLookupDegraded: return "lookup_degraded";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      ring_(capacity_),
      texts_{std::string{}} {
  ids_.emplace(std::string{}, 0);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

TraceId FlightRecorder::intern(std::string_view text) {
  const sciera::MutexLock lock(mutex_);
  if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
  const auto id = static_cast<TraceId>(texts_.size());
  texts_.emplace_back(text);
  ids_.emplace(std::string{text}, id);
  return id;
}

std::vector<std::string> FlightRecorder::texts() const {
  const sciera::MutexLock lock(mutex_);
  return texts_;
}

void FlightRecorder::record(TraceType type, SimTime time, std::uint64_t seq,
                            TraceId subject, TraceDetail detail,
                            std::uint64_t arg, std::uint64_t arg2,
                            std::int64_t value) {
  const sciera::MutexLock lock(mutex_);
  ring_[next_] = TraceEvent{type, detail, subject, time, seq, arg, arg2, value};
  next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  ++recorded_;
}

std::size_t FlightRecorder::size_locked() const {
  return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                               : capacity_;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  const sciera::MutexLock lock(mutex_);
  const std::size_t size = size_locked();
  // Before the first wrap the ring is in order from slot 0; afterwards the
  // oldest retained event sits at next_.
  const std::size_t start = size < capacity_ ? 0 : next_;
  std::vector<TraceEvent> events;
  events.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    events.push_back(ring_[(start + i) % capacity_]);
  }
  return events;
}

std::size_t FlightRecorder::size() const {
  const sciera::MutexLock lock(mutex_);
  return size_locked();
}

std::uint64_t FlightRecorder::recorded() const {
  const sciera::MutexLock lock(mutex_);
  return recorded_;
}

std::uint64_t FlightRecorder::overwritten() const {
  const sciera::MutexLock lock(mutex_);
  return recorded_ - size_locked();
}

void FlightRecorder::clear() {
  const sciera::MutexLock lock(mutex_);
  next_ = 0;
  recorded_ = 0;
}

}  // namespace sciera::obs
