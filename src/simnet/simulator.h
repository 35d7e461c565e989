// Discrete-event simulator core. This is the substrate that stands in for
// the physical SCIERA network: links with real propagation delays and
// failure schedules, and deterministic event ordering so every experiment
// replays exactly from its seed.
//
// Two interchangeable scheduler backends implement the same ordering
// contract — events fire in strict (time, insertion-sequence) order:
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
// Sharded parallel execution (SchedulerConfig::shards > 1): the network
// partitions into shards (see shard.h), each owning a private event queue
// of the configured backend, plus one global queue for machinery that
// spans shards (chaos injection, healing sweeps). Synchronization is
// conservative: shards execute lock-free inside a window bounded by the
// minimum cross-shard link latency (the lookahead the speed of light
// hands us for free on long-haul links), cross-shard messages queue in
// per-shard outboxes, and the driver merges outboxes in fixed shard order
// at every window barrier. The shard->thread mapping is static
// (shard s -> thread s mod T), and the merge is deterministic, so the
// executed schedule — and therefore ScheduleDigest — is byte-identical
// for any thread count, including 1.
//
// The equivalence is audited, not assumed: the same seeded scenario must
// produce an identical ScheduleDigest under both backends and any thread
// count (tests/simcore_test.cc, tests/parallel_test.cc).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/time.h"
#include "simnet/shard.h"

namespace sciera::simnet {

namespace obs_cells {
struct SimulatorGauges;
}  // namespace obs_cells

// Order-sensitive digest of everything a simulator has executed: every
// (time, sequence-number) pair is folded into an FNV-1a style hash as the
// event fires. Two runs of the same seeded scenario must produce identical
// digests; a mismatch means hidden nondeterminism (iteration over
// pointer-keyed containers, uninitialized memory, wall-clock leakage).
// Sharded runs keep one digest per queue and merge them in queue-id order,
// so the merged digest is a pure function of the per-shard schedules and
// never of thread interleaving.
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
  // Parallel core geometry. shards == 1 is the classic single-queue core
  // (zero overhead, byte-identical to the pre-shard simulator). shards > 1
  // partitions the event schedule into that many shard queues plus one
  // global queue; threads caps the worker count (clamped to shards).
  std::size_t shards = 1;
  std::size_t threads = 1;
};

// Validates scheduler geometry before a Simulator is built from it:
// calendar buckets must be positive powers of two (the wheel maps times
// with shift+mask; a degenerate geometry silently corrupts the mapping),
// and shard/thread counts must be >= 1. Tools validate user-supplied
// configs with this and exit cleanly; the Simulator constructor enforces
// the same contract with SCIERA_CHECK.
[[nodiscard]] Status validate_scheduler_config(const SchedulerConfig& config);

class Simulator {
 public:
  using Action = std::function<void()>;

  // "No pending event" sentinel for window computations.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  Simulator() : Simulator(SchedulerConfig{}) {}
  explicit Simulator(SchedulerConfig config);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Simulated time of the calling context: the executing shard's clock
  // from inside an event, the global clock otherwise.
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] SchedulerKind scheduler_kind() const { return config_.kind; }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  [[nodiscard]] std::size_t thread_count() const { return thread_count_; }

  // The shard-aware scheduling entry point. `domain` names the queue the
  // action executes on: a shard, the global domain, or Domain::current()
  // to inherit the executing event's domain. Scheduling across shards
  // from inside a shard event is deferred to the next window barrier and
  // must respect the lookahead window (`when` at or after the current
  // window's end); violations are clamped and audited
  // ("simnet.cross_shard_lookahead").
  void schedule(Domain domain, SimTime when, Action action);
  void schedule_after(Domain domain, Duration delay, Action action);

  // Conservative lookahead for cross-shard scheduling: the minimum
  // latency any cross-shard interaction can have. ScionNetwork sets this
  // to the minimum cross-shard link delay after wiring the topology.
  // Must be >= 1 (the default); only meaningful when shards > 1.
  void set_lookahead(Duration lookahead);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  // Runs until the queues drain or the given time is passed.
  void run_until(SimTime deadline);
  void run_for(Duration span) { run_until(now() + span); }
  // Runs until the queues drain completely.
  void run_all();

  // Pending/executed counts: per-queue from inside an event (race-free on
  // worker threads), totals across all queues otherwise.
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const;

  // Digest of the executed event schedule so far (see ScheduleDigest).
  // Single-shard: the queue's digest verbatim (byte-identical to the
  // pre-shard core). Sharded: per-queue digests folded in queue-id order.
  [[nodiscard]] ScheduleDigest schedule_digest() const;
  [[nodiscard]] std::uint64_t schedule_hash() const {
    return schedule_digest().hash;
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

  // A cross-shard message parked until the next window barrier.
  struct OutboundEvent {
    std::uint32_t dst;  // destination queue index
    SimTime when;
    Action action;
  };

  // One event queue of the configured backend. Queue 0 is the global
  // domain's (and the only queue when shards == 1); queue 1 + s belongs
  // to shard s. During a window each queue is driven by exactly one
  // thread (static shard->thread mapping); between windows the driver
  // owns all of them — the barrier's mutex hand-off publishes the state.
  struct EventQueue {
    explicit EventQueue(const SchedulerConfig& config);
    EventQueue(EventQueue&&) = default;

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

    // Cross-shard messages produced by this queue's events during the
    // current window; drained by the driver at the barrier in queue-id
    // order, so merge order never depends on thread interleaving.
    std::vector<OutboundEvent> outbox_;
  };

  [[nodiscard]] bool sharded() const { return queues_.size() > 1; }
  // Queue index a Domain resolves to (given the executing context's
  // queue, or kNoContext outside event execution).
  static constexpr std::uint32_t kNoContext = 0xFFFFFFFFu;
  [[nodiscard]] std::uint32_t queue_index(Domain domain,
                                          std::uint32_t ctx_qi) const;

  // Earliest pending time of a queue, kNever when empty. Driver-only.
  [[nodiscard]] SimTime queue_peek(std::uint32_t qi);

  // Sharded driver: alternates exclusive global-event execution with
  // barrier-synchronized shard windows until every queue is past
  // `deadline` (or drained).
  void run_sharded(SimTime deadline);
  // Executes one window [*, window_end) on every shard queue, using the
  // worker pool when thread_count_ > 1.
  void execute_window(SimTime window_end);
  // Drains one queue up to (exclusive) window_end on the calling thread.
  void run_queue_window(std::uint32_t qi, SimTime window_end);
  // Applies parked cross-shard messages in deterministic queue-id order.
  void merge_outboxes();

  // Worker pool: spawned lazily at the first parallel window, parked on
  // pool_cv_ between windows. The driver publishes (round, window_end)
  // under pool_mutex_ and waits on done_cv_; the mutex hand-offs carry
  // the happens-before edges that make per-queue state safe to pass
  // between the driver and workers without per-event locking.
  void start_workers();
  void stop_workers();
  void worker_main(std::size_t worker);

  void update_gauges();

  // config_, shards_, thread_count_, and lookahead_ are set before any
  // event runs; queues_ is structurally fixed after construction and each
  // element is owned by one thread per window as described on EventQueue.
  SchedulerConfig config_;
  std::size_t shards_ = 1;
  std::size_t thread_count_ = 1;
  Duration lookahead_ = 1;
  std::vector<EventQueue> queues_;

  sciera::Mutex pool_mutex_;
  std::condition_variable_any pool_cv_;
  std::condition_variable_any done_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t pool_round_ SCIERA_GUARDED_BY(pool_mutex_) = 0;
  SimTime pool_window_end_ SCIERA_GUARDED_BY(pool_mutex_) = 0;
  std::size_t pool_pending_ SCIERA_GUARDED_BY(pool_mutex_) = 0;
  bool pool_shutdown_ SCIERA_GUARDED_BY(pool_mutex_) = false;

  // Owned, null when disabled.
  obs_cells::SimulatorGauges* gauges_ SCIERA_GUARDED_BY(sim_thread_role) =
      nullptr;
};

}  // namespace sciera::simnet
