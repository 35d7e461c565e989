// Sim-time flight recorder: a bounded ring buffer of typed trace events
// (packet hops, SCMP emissions, beacon originations, path lookups, link
// transitions, probe bursts). Events carry the simulation time and the
// Simulator's executed-event sequence number at record time, so the
// exported trace has a deterministic total order: same seed, same
// construction order => byte-identical export.
//
// A record holds no text, so recording never allocates. The emitting
// component's name is an interned id, taken once when the component is
// built; the detail is a code plus integers (an egress interface, a packed
// ISD-AS, a tick); rare free text (chaos notes, SCMP type names, path-down
// fingerprints) is an interned text id, bounded by its distinct values.
// Text is rendered only by export_trace_text / export_trace_json.
//
// Each simnet::Simulator owns one recorder, so a trace holds exactly one
// run and only the thread driving that run writes it: there is no lock.
// Simulator::trace stamps an event with the simulator's now() and
// executed_events(). The recorder itself has no dependency on simnet —
// record() takes (time, seq) explicitly, which also lets analytic
// (non-simulated) code like the measurement campaign stamp its own
// tick-indexed events.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/time.h"

namespace sciera::obs {

enum class TraceType : std::uint8_t {
  kPacketHop,         // border router forwarded a packet out an interface
  kPacketDrop,        // in-flight delivery cancelled (e.g. circuit cut)
  kScmpEmitted,       // router originated an SCMP message
  kBeaconOriginated,  // a beaconing sweep installed fresh segments
  kPathLookup,        // daemon / control-service path lookup (hit or miss)
  kPathDown,          // SCMP feedback quarantined a path fingerprint
  kLinkTransition,    // link admin state flipped up/down
  kProbeBurst,        // measurement campaign finished one probe interval
  kChaosInject,       // chaos engine applied a fault-plan event
  kLookupDegraded,    // daemon served a degraded (stale/empty) lookup
};

[[nodiscard]] const char* trace_type_name(TraceType type);

// An interned string: an index into the recorder's text table. Id 0 is the
// empty string.
using TraceId = std::uint32_t;

// What an event's detail says, and which of its integers it reads.
enum class TraceDetail : std::uint8_t {
  kNone,            // no detail
  kText,            // interned free text; arg = its TraceId
  kEgress,          // "egress=<arg>"
  kLookupHit,       // "<ia> hit"; arg = IsdAs::packed()
  kLookupMiss,      // "<ia> miss"
  kLookupDropped,   // "<ia> dropped"
  kLookupStale,     // "<ia> stale"
  kLookupEmpty,     // "<ia> empty"
  kProbeTick,       // "tick=<arg> pairs=<arg2>"
  kCutInFlight,     // "cut-in-flight"
  kLinkUp,          // "up"
  kLinkDown,        // "down"
  kRouterCrash,     // "router crash"
  kServiceUp,       // "service up"
  kServiceOutage,   // "service outage"
  kBeaconingSweep,  // "beaconing sweep"
  kHealingSweep,    // "healing sweep"
};

struct TraceEvent {
  TraceType type = TraceType::kPacketHop;
  TraceDetail detail = TraceDetail::kNone;
  TraceId subject = 0;     // emitting component ("br-71-225", link label, ...)
  SimTime time = 0;        // simulation time of the event
  std::uint64_t seq = 0;   // Simulator::executed_events() at record time
  std::uint64_t arg = 0;   // the detail's integers (see TraceDetail)
  std::uint64_t arg2 = 0;
  std::int64_t value = 0;  // optional numeric payload
};
// Ring slots are overwritten by plain copies; nothing in a record owns heap
// memory.
static_assert(std::is_trivially_copyable_v<TraceEvent>);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  // Allocates all `capacity` ring slots up front.
  explicit FlightRecorder(std::size_t capacity);
  FlightRecorder() : FlightRecorder(kDefaultCapacity) {}

  // The id of `text`, added to the table on first sight. Ids are stable
  // for the recorder's lifetime.
  [[nodiscard]] TraceId intern(std::string_view text);
  // The interned texts, indexed by TraceId.
  [[nodiscard]] const std::vector<std::string>& texts() const {
    return texts_;
  }

  void record(TraceType type, SimTime time, std::uint64_t seq,
              TraceId subject, TraceDetail detail = TraceDetail::kNone,
              std::uint64_t arg = 0, std::uint64_t arg2 = 0,
              std::int64_t value = 0);

  // Retained events, oldest first (at most capacity()).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const {
    return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                                 : capacity_;
  }
  // Total events ever recorded / evicted by the ring bound.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_ - size();
  }

 private:
  const std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  // Ring slot the next event lands in.
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  std::vector<std::string> texts_;
  std::map<std::string, TraceId, std::less<>> ids_;
};

}  // namespace sciera::obs
