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

TraceId FlightRecorder::intern(std::string_view text) {
  if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
  const auto id = static_cast<TraceId>(texts_.size());
  texts_.emplace_back(text);
  ids_.emplace(std::string{text}, id);
  return id;
}

void FlightRecorder::record(TraceType type, SimTime time, std::uint64_t seq,
                            TraceId subject, TraceDetail detail,
                            std::uint64_t arg, std::uint64_t arg2,
                            std::int64_t value) {
  ring_[next_] = TraceEvent{type, detail, subject, time, seq, arg, arg2, value};
  next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  ++recorded_;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  const std::size_t count = size();
  // Before the first wrap the ring is in order from slot 0; afterwards the
  // oldest retained event sits at next_.
  const std::size_t start = count < capacity_ ? 0 : next_;
  std::vector<TraceEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(ring_[(start + i) % capacity_]);
  }
  return events;
}

}  // namespace sciera::obs
