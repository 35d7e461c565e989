// Discrete-event simulator core. This is the substrate that stands in for
// the physical SCIERA network: links with real propagation delays and
// failure schedules, and deterministic event ordering so every experiment
// replays exactly from its seed.
//
// The ordering contract: events fire in strict (time, insertion-sequence)
// order, where the sequence number is taken when the event is scheduled
// or, for schedule_reserved(), when its number was reserved. One event
// queue keeps it: a binary min-heap of 24-byte (time, sequence, slot)
// keys, whose actions wait in a slot vector recycled through a free list,
// so a sift moves keys and never a std::function, and a warm queue
// schedules without allocating. The contract is checked directly: the
// digest of a seeded scenario must equal the fold of every (time,
// sequence) pair it scheduled, in sorted order (tests/simcore_test.cc).
//
// The core is serial: one event queue, driven by one thread (DESIGN.md
// §13 records why).
//
// A simulator also owns its run's flight recorder: components reach it
// through recorder() to intern their names when they are built, and
// record through trace(), which stamps now() and executed_events().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/flight_recorder.h"

namespace sciera::obs {
class Gauge;
}  // namespace sciera::obs

namespace sciera::simnet {

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

// Empty: the simulator has one event queue and nothing to configure. The
// type stays only because SoakOptions::scheduler and
// ScionNetwork::Options::scheduler are fields of it, and the benchmark's
// traced child copies one into the other; all three go when that copy
// does.
struct SchedulerConfig {};

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

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

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // Digest of the executed event schedule so far (see ScheduleDigest).
  [[nodiscard]] ScheduleDigest schedule_digest() const { return digest_; }
  [[nodiscard]] std::uint64_t schedule_hash() const { return digest_.hash; }

  // This run's flight recorder.
  [[nodiscard]] obs::FlightRecorder& recorder() { return recorder_; }
  // Records an event of this run, stamped with now() and executed_events().
  void trace(obs::TraceType type, obs::TraceId subject,
             obs::TraceDetail detail = obs::TraceDetail::kNone,
             std::uint64_t arg = 0, std::int64_t value = 0) {
    recorder_.record(type, now(), executed_events(), subject, detail, arg, 0,
                     value);
  }

  // Publishes pending/executed depths as obs gauges under the given
  // instance label. Off by default: unit tests create thousands of
  // short-lived simulators and must not flood the registry. ScionNetwork
  // enables this for its simulator.
  void enable_metrics(const std::string& label);

 private:
  // A pending event's place in the queue; its action waits in
  // slots_[slot].
  struct Key {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break for same-time events
    std::uint32_t slot;
  };
  // Heap order: the earliest (when, seq) sits at heap_.front().
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void push(SimTime when, std::uint64_t seq, Action action);
  // Pops the next event, folds it into the digest, advances time and runs
  // it.
  void run_next();
  void update_gauges();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  ScheduleDigest digest_;
  std::vector<Key> heap_;
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_slots_;  // slots_ holding no action
  // Open reservations: one past each reservation's last number -> its
  // next number not yet placed.
  std::map<std::uint64_t, std::uint64_t> reservations_;
  obs::FlightRecorder recorder_;

  // Registry cells, null until enable_metrics.
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* executed_gauge_ = nullptr;
};

}  // namespace sciera::simnet
