// Discrete-event simulator core. This is the substrate that stands in for
// the physical SCIERA network: links with real propagation delays and
// failure schedules, and deterministic event ordering so every experiment
// replays exactly from its seed.
//
// Two interchangeable scheduler backends implement the same ordering
// contract — events fire in strict (time, insertion-sequence) order, where
// the sequence number is taken when the event is scheduled or, for
// schedule_reserved(), when its number was reserved:
//
//   kBinaryHeap     the classic std::priority_queue, O(log n) per op.
//                   Kept as the referee the calendar queue's schedule is
//                   checked against.
//   kCalendarQueue  a calendar queue / timer wheel: near-future events
//                   land in fixed-width time buckets (O(1) amortized
//                   schedule/pop), far-future events wait in an overflow
//                   heap and migrate into the wheel as it rotates. This is
//                   the default: campaign-scale workloads schedule
//                   millions of near-future events where heap comparisons
//                   dominate.
//
// The core is serial: one event queue, driven by one thread (DESIGN.md
// §13 records why). The backend equivalence is audited, not assumed: the
// same seeded scenario must produce an identical ScheduleDigest under
// both backends (tests/simcore_test.cc).
//
// A simulator also owns its run's flight recorder: components reach it
// through recorder() to intern their names when they are built, and
// record through trace(), which stamps now() and executed_events().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "obs/flight_recorder.h"

namespace sciera::simnet {

namespace obs_cells {
struct SimulatorGauges;
}  // namespace obs_cells

// Order-sensitive digest of everything a simulator has executed: every
// (time, sequence-number) pair is folded into an FNV-1a style hash as the
// event fires. Two runs of the same seeded scenario must produce identical
// digests; a mismatch means hidden nondeterminism (iteration over
// pointer-keyed containers, uninitialized memory, wall-clock leakage).
struct ScheduleDigest {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  std::uint64_t executed = 0;

  void fold(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xFF;
      hash *= 0x100000001B3ULL;  // FNV-1a prime
    }
  }

  friend bool operator==(const ScheduleDigest&, const ScheduleDigest&) =
      default;
};

enum class SchedulerKind : std::uint8_t { kBinaryHeap, kCalendarQueue };

[[nodiscard]] const char* scheduler_kind_name(SchedulerKind kind);

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kCalendarQueue;
  // Calendar-queue geometry. The wheel covers bucket_width * bucket_count
  // of simulated time ahead of the cursor; anything beyond waits in the
  // overflow heap. Defaults suit the SCIERA workloads end to end: link
  // serialization lands within one ~262us bucket, and the horizon
  // (~262us x 4096 buckets ≈ 1.07s of simulated time) also covers the
  // control-plane timescale — workload start windows, daemon TTLs, and
  // healing sweeps run on hundreds of milliseconds to a second, and the
  // previous ~134ms horizon pushed all of those through the overflow
  // heap twice (heap insert + wheel migration). The many-flow workload
  // never touches the overflow heap under these defaults; the 134ms
  // geometry parks up to 1,599 of its events there
  // (SchedulerGeometry.* in tests/simcore_test.cc pins both counts).
  // Both values must be powers of two — the per-push bucket mapping
  // then compiles to shift+mask instead of a 64-bit division.
  Duration bucket_width = Duration{1} << 18;  // 262.144us in ns units
  std::size_t bucket_count = 4096;
};

// Validates scheduler geometry before a Simulator is built from it:
// calendar buckets must be positive powers of two (the wheel maps times
// with shift+mask; a degenerate geometry silently corrupts the mapping).
// The Simulator constructor enforces the contract with SCIERA_CHECK.
[[nodiscard]] Status validate_scheduler_config(const SchedulerConfig& config);

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() : Simulator(SchedulerConfig{}) {}
  explicit Simulator(SchedulerConfig config);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return queue_.now_; }

  // Schedules `action` at absolute time `when`. A time in the past is a
  // bug in the caller: debug builds fail a check, release builds clamp
  // to now() and count the violation ("simnet.schedule_in_past").
  void schedule(SimTime when, Action action);
  void schedule_after(Duration delay, Action action);

  // Reserves `count` consecutive sequence numbers and returns the first.
  // Events placed at them later with schedule_reserved() order exactly as
  // if schedule() had been called `count` times now, so a producer that
  // knows a long series of events up front can keep only the next one
  // pending.
  [[nodiscard]] std::uint64_t reserve_sequence(std::uint64_t count);
  // Schedules `action` at `when` under the reserved number `seq`. Each
  // reserved number is placed at most once, in increasing order within
  // its reservation, and `when` must not be in the past. Either violation
  // fails a check ("simnet.reserved_unknown_seq" /
  // "simnet.reserved_in_past"); if the check only counts, the event takes
  // a fresh number / now().
  void schedule_reserved(SimTime when, std::uint64_t seq, Action action);

  // Runs until the queue drains or the given time is passed.
  void run_until(SimTime deadline);
  void run_for(Duration span) { run_until(now() + span); }
  // Runs until the queue drains completely.
  void run_all();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size_; }
  [[nodiscard]] std::uint64_t executed_events() const {
    return queue_.executed_;
  }

  // Digest of the executed event schedule so far (see ScheduleDigest).
  [[nodiscard]] ScheduleDigest schedule_digest() const {
    return queue_.digest_;
  }
  [[nodiscard]] std::uint64_t schedule_hash() const {
    return schedule_digest().hash;
  }

  // This run's flight recorder.
  [[nodiscard]] obs::FlightRecorder& recorder() { return recorder_; }
  // Records an event of this run, stamped with now() and executed_events().
  void trace(obs::TraceType type, obs::TraceId subject,
             obs::TraceDetail detail = obs::TraceDetail::kNone,
             std::uint64_t arg = 0, std::int64_t value = 0) {
    recorder_.record(type, now(), executed_events(), subject, detail, arg, 0,
                     value);
  }

  // Publishes pending/executed/overflow depths as obs gauges under the
  // given instance label. Off by default: unit tests create thousands of
  // short-lived simulators and must not flood the registry. ScionNetwork
  // enables this for its simulator.
  void enable_metrics(const std::string& label);

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break for same-time events
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  using EventHeap = std::priority_queue<Event, std::vector<Event>, Later>;

  // The event queue, of the configured backend.
  struct EventQueue {
    explicit EventQueue(const SchedulerConfig& config);

    void push(Event event);
    // True when at least one event is pending; positions the calendar
    // cursor so that peek/take see the earliest event.
    [[nodiscard]] bool prepare_next();
    [[nodiscard]] SimTime peek_next_time() const;
    // Pops the next event, folds it into the digest, and advances time.
    Event take_next();

    // Calendar-queue internals (kind == kCalendarQueue).
    [[nodiscard]] std::size_t bucket_index(SimTime when) const;
    void advance_cursor();
    void jump_to_far();

    // Geometry copied from SchedulerConfig at construction.
    SchedulerKind kind;
    Duration bucket_width;
    std::size_t bucket_count;
    int width_shift = 0;  // log2(bucket_width); widths are powers of two

    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;
    ScheduleDigest digest_;

    // kBinaryHeap backend.
    EventHeap heap_;

    // kCalendarQueue backend: `near_` holds the cursor bucket's events as
    // a manual (when, seq) min-heap (std::push_heap/pop_heap over a plain
    // vector, so a whole drained bucket can be adopted via swap + O(n)
    // make_heap and bucket capacities recycle instead of reallocating);
    // `buckets_` hold unordered events within the wheel horizon; `far_`
    // holds everything past the horizon.
    std::vector<Event> near_;
    std::vector<std::vector<Event>> buckets_;
    std::size_t buckets_occupied_ = 0;  // events currently in buckets_
    EventHeap far_;
    std::size_t cursor_ = 0;
    SimTime wheel_start_ = 0;  // start time of the cursor bucket
    SimTime near_end_ = 0;     // wheel_start_ + bucket_width
    SimTime horizon_end_ = 0;  // wheel_start_ + width * count
  };

  void update_gauges();

  SchedulerConfig config_;
  EventQueue queue_;
  // Open reservations: one past each reservation's last number -> its
  // next number not yet placed.
  std::map<std::uint64_t, std::uint64_t> reservations_;
  obs::FlightRecorder recorder_;

  // Owned, null when disabled.
  obs_cells::SimulatorGauges* gauges_ = nullptr;
};

}  // namespace sciera::simnet
