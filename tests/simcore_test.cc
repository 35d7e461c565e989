// Ordering-contract suite: every raw-simulator scenario records each
// (time, sequence) pair it schedules, numbering them as the simulator
// must, and its ScheduleDigest must equal the fold of those pairs in
// sorted order; timer chains, same-tick floods, a campaign-scale hold
// model, sparse far-future schedules, deadline cuts and reserved series.
// Full-network scenarios (failover, a many-flow traffic matrix) pin their
// digests. Plus the input validation of the TrafficMatrix builder and
// FramePool reuse/leak assertions (run under ASan in the sanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "controlplane/control_plane.h"
#include "dataplane/frame_pool.h"
#include "dataplane/scmp.h"
#include "simnet/simulator.h"
#include "topology/sciera_net.h"
#include "workload/workload.h"

namespace sciera {
namespace {

namespace a = topology::ases;

// Schedules through a simulator and records every (time, sequence) pair
// it hands out, numbering them as the contract says: each schedule()
// takes the next number, and a reservation of `count` the next `count`.
class ContractLog {
 public:
  explicit ContractLog(simnet::Simulator& sim) : sim_(sim) {}

  void schedule(SimTime when, simnet::Simulator::Action action) {
    pairs_.emplace_back(when, next_seq_++);
    sim_.schedule(when, std::move(action));
  }
  void schedule_after(Duration delay, simnet::Simulator::Action action) {
    schedule(sim_.now() + delay, std::move(action));
  }
  std::uint64_t reserve_sequence(std::uint64_t count) {
    const std::uint64_t first = sim_.reserve_sequence(count);
    EXPECT_EQ(first, next_seq_);
    next_seq_ += count;
    return first;
  }
  void schedule_reserved(SimTime when, std::uint64_t seq,
                         simnet::Simulator::Action action) {
    pairs_.emplace_back(when, seq);
    sim_.schedule_reserved(when, seq, std::move(action));
  }

  // The digest the contract predicts once every event due by `deadline`
  // has run: the recorded pairs up to it, folded in (time, seq) order.
  [[nodiscard]] simnet::ScheduleDigest expected(
      SimTime deadline = std::numeric_limits<SimTime>::max()) const {
    auto sorted = pairs_;
    std::sort(sorted.begin(), sorted.end());
    simnet::ScheduleDigest digest;
    for (const auto& [when, seq] : sorted) {
      if (when > deadline) break;
      digest.fold(static_cast<std::uint64_t>(when));
      digest.fold(seq);
      ++digest.executed;
    }
    return digest;
  }

 private:
  simnet::Simulator& sim_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> pairs_;
};

// Expects the simulator to have executed exactly the contract's schedule;
// returns its digest for further pins.
simnet::ScheduleDigest expect_contract(const simnet::Simulator& sim,
                                       const ContractLog& log) {
  const auto digest = sim.schedule_digest();
  const auto expected = log.expected();
  EXPECT_EQ(digest, expected)
      << "hash " << digest.hash << " (" << digest.executed
      << " events) vs contract hash " << expected.hash << " ("
      << expected.executed << " events)";
  return digest;
}

// --- Raw simulator workloads ---------------------------------------------

TEST(SchedulerEquivalence, SeededTimerChains) {
  simnet::Simulator sim;
  ContractLog log{sim};
  Rng rng{0xD16E57, "chains"};
  std::function<void(int)> tick = [&](int remaining) {
    if (remaining <= 0) return;
    log.schedule_after(
        static_cast<Duration>(rng.next_below(kMillisecond) + 1),
        [&tick, remaining] { tick(remaining - 1); });
  };
  for (int chain = 0; chain < 16; ++chain) tick(200);
  sim.run_all();
  EXPECT_EQ(expect_contract(sim, log).executed, 16u * 200u);
}

TEST(SchedulerEquivalence, SameTickEventsKeepFifoOrder) {
  // Many events at identical timestamps: ordering must fall back to
  // insertion sequence.
  simnet::Simulator sim;
  ContractLog log{sim};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) log.schedule(round * kMillisecond, [] {});
  }
  sim.run_all();
  EXPECT_EQ(expect_contract(sim, log).executed, 50u * 20u);
}

TEST(SchedulerEquivalence, SparseFarFutureSchedule) {
  // Probe-campaign shape: events minutes apart, each scheduling one
  // successor up to a minute later.
  simnet::Simulator sim;
  ContractLog log{sim};
  Rng rng{0xFA5, "sparse"};
  for (int i = 0; i < 64; ++i) {
    const auto when = static_cast<SimTime>(rng.next_below(20 * kMinute));
    log.schedule(when, [&log, &rng] {
      log.schedule_after(
          static_cast<Duration>(rng.next_below(kMinute) + 1), [] {});
    });
  }
  sim.run_all();
  EXPECT_EQ(expect_contract(sim, log).executed, 128u);
}

TEST(SchedulerEquivalence, RunUntilDeadlineAgrees) {
  // Partial drains: the deadline cut must land after exactly the events
  // due by it, then the rest follow.
  simnet::Simulator sim;
  ContractLog log{sim};
  Rng rng{0xDEAD11, "deadline"};
  for (int i = 0; i < 500; ++i) {
    log.schedule(static_cast<SimTime>(rng.next_below(10 * kMillisecond)),
                 [] {});
  }
  sim.run_until(5 * kMillisecond);
  EXPECT_EQ(sim.schedule_digest(), log.expected(5 * kMillisecond));
  EXPECT_EQ(sim.now(), 5 * kMillisecond);
  sim.run_all();
  EXPECT_EQ(expect_contract(sim, log).executed, 500u);
}

TEST(SchedulerEquivalence, CampaignScaleHoldModel) {
  // Hold model at a large pending population: 20,000 events stay pending
  // while 200,000 more execute, each scheduling one successor at
  // now + U(0, 2^30 ns].
  simnet::Simulator sim;
  ContractLog log{sim};
  Rng rng{0xB31C, "hold"};
  constexpr auto kHorizonMask = (std::uint64_t{1} << 30) - 1;
  std::uint64_t remaining = 200'000;
  std::function<void()> schedule_one = [&] {
    const auto offset =
        1 + static_cast<Duration>(rng.next_u64() & kHorizonMask);
    log.schedule_after(offset, [&] {
      if (remaining == 0) return;
      --remaining;
      schedule_one();
    });
  };
  for (int i = 0; i < 20'000; ++i) schedule_one();
  sim.run_all();
  const auto digest = expect_contract(sim, log);
  EXPECT_EQ(digest.executed, 220'000u);
  EXPECT_EQ(digest.hash, 0x128ddd7ecd4c2b52ULL);
}

// A series launched from inside an event, as an attack burst is: 3,000
// sends with exponential gaps (mean 1 ms), each scheduling a tie at the
// next send's exact time while timer chains keep drawing fresh numbers.
// Scheduled all at launch, or placed one at a time at numbers reserved at
// launch, it must run the contract's schedule, and the same one.
simnet::ScheduleDigest run_series(bool reserved) {
  constexpr std::size_t kSends = 3000;
  simnet::Simulator sim;
  ContractLog log{sim};
  Rng rng{0x5E41E5, "chains"};
  std::function<void(int)> tick = [&](int remaining) {
    if (remaining <= 0) return;
    log.schedule_after(
        static_cast<Duration>(rng.next_below(5 * kMillisecond) + 1),
        [&tick, remaining] { tick(remaining - 1); });
  };
  for (int chain = 0; chain < 8; ++chain) tick(400);

  std::vector<SimTime> at;  // the series' send times, drawn at launch
  std::uint64_t first = 0;  // its first reserved number
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    if (i + 1 == kSends) return;
    // Same time as the next send, but a later sequence number.
    log.schedule(at[i + 1], [] {});
    if (reserved) {
      log.schedule_reserved(at[i + 1], first + i + 1,
                            [&send, i] { send(i + 1); });
    }
  };
  log.schedule(2 * kMillisecond, [&] {
    Rng gaps{0x5E41E5, "gaps"};
    SimTime t = sim.now();
    for (std::size_t i = 0; i < kSends; ++i) {
      t += 1 + static_cast<Duration>(gaps.exponential(kMillisecond));
      at.push_back(t);
    }
    if (reserved) {
      first = log.reserve_sequence(kSends);
      log.schedule_reserved(at[0], first, [&send] { send(0); });
    } else {
      for (std::size_t i = 0; i < kSends; ++i) {
        log.schedule(at[i], [&send, i] { send(i); });
      }
    }
  });
  sim.run_all();
  return expect_contract(sim, log);
}

TEST(SchedulerEquivalence, ReservedSequenceMatchesEagerSchedule) {
  const auto eager = run_series(false);
  const auto reserved = run_series(true);
  EXPECT_EQ(eager, reserved);
  EXPECT_EQ(eager.executed, 8u * 400u + 1u + 3000u + 2999u);
}

// schedule_reserved's contract: a number comes from a reservation and is
// placed once, in increasing order, at a time not in the past. Each
// violation fails its check; in count mode the event still runs, at
// now() or under a fresh number.
TEST(ScheduleReserved, PastTimeOrUnreservedSequenceFailsCheck) {
  CheckRegistry::instance().set_fail_mode(CheckFailMode::kCount);
  auto& checks = CheckRegistry::instance();
  const auto past = checks.count("simnet.reserved_in_past");
  const auto unknown = checks.count("simnet.reserved_unknown_seq");
  simnet::Simulator sim;
  sim.schedule(10 * kMillisecond, [] {});  // takes number 0
  sim.run_all();
  const std::uint64_t first = sim.reserve_sequence(3);
  EXPECT_EQ(first, 1u);
  int ran = 0;
  const auto run = [&ran] { ++ran; };

  sim.schedule_reserved(5 * kMillisecond, first, run);  // in the past
  EXPECT_EQ(checks.count("simnet.reserved_in_past"), past + 1);
  EXPECT_EQ(checks.count("simnet.reserved_unknown_seq"), unknown);

  sim.schedule_reserved(20 * kMillisecond, first + 3, run);  // not reserved
  sim.schedule_reserved(20 * kMillisecond, 0, run);      // schedule()'s
  sim.schedule_reserved(20 * kMillisecond, first, run);  // placed already
  EXPECT_EQ(checks.count("simnet.reserved_unknown_seq"), unknown + 3);

  sim.schedule_reserved(20 * kMillisecond, first + 2, run);  // skips one
  EXPECT_EQ(checks.count("simnet.reserved_unknown_seq"), unknown + 3);
  sim.schedule_reserved(20 * kMillisecond, first + 1, run);  // out of order
  EXPECT_EQ(checks.count("simnet.reserved_unknown_seq"), unknown + 4);
  EXPECT_EQ(checks.count("simnet.reserved_in_past"), past + 1);
  CheckRegistry::instance().set_fail_mode(CheckFailMode::kAbort);

  sim.run_all();
  EXPECT_EQ(ran, 6);
  EXPECT_EQ(sim.now(), 20 * kMillisecond);
}

// --- Full-network scenarios ----------------------------------------------
// The network schedules its own events, which no log sees, so these
// scenarios pin their digests instead.

simnet::ScheduleDigest run_failover_with(
    controlplane::ScionNetwork::Options options) {
  controlplane::ScionNetwork net{topology::build_sciera(), options};

  const dataplane::Address host{a::uva(), 0x0A000001};
  int delivered = 0;
  EXPECT_TRUE(net.register_host(host, [&](const dataplane::ScionPacket&,
                                          SimTime) { ++delivered; })
                  .ok());
  const auto paths = net.paths(a::uva(), a::ufms());
  EXPECT_FALSE(paths.empty());
  auto send_burst = [&] {
    for (int i = 0; i < 5; ++i) {
      dataplane::ScionPacket pkt;
      pkt.src = host;
      pkt.dst = {a::ufms(), 2};
      pkt.next_hdr = dataplane::kProtoScmp;
      pkt.path = paths.front().dataplane_path;
      pkt.payload =
          dataplane::make_echo_request(7, static_cast<std::uint16_t>(i))
              .serialize();
      EXPECT_TRUE(net.send_from_host(pkt).ok());
    }
  };
  send_burst();
  net.sim().run_for(kSecond);
  // Cut a link on the path mid-experiment, keep sending into the outage,
  // then restore: exercises SCMP generation and link-down event paths.
  const std::string label = net.topology().links().front().label;
  net.set_link_up(label, false);
  send_burst();
  net.sim().run_for(kSecond);
  net.set_link_up(label, true);
  send_burst();
  net.sim().run_for(2 * kSecond);
  EXPECT_GT(delivered, 0);
  return net.sim().schedule_digest();
}

simnet::ScheduleDigest run_failover_scenario() {
  controlplane::ScionNetwork::Options options;
  options.seed = 0x5EED;
  return run_failover_with(options);
}

TEST(SchedulerEquivalence, FailoverScenario) {
  const auto digest = run_failover_scenario();
  EXPECT_EQ(digest.executed, 105u);
  EXPECT_EQ(digest.hash, 0xd8a78b8f5d9dd5acULL);
}

simnet::ScheduleDigest run_many_flow_with(
    controlplane::ScionNetwork::Options options) {
  // Many concurrent flows across every AS.
  controlplane::ScionNetwork net{topology::build_sciera(), options};
  workload::WorkloadConfig wconfig;
  wconfig.hosts = 6;
  wconfig.flows = 18;
  wconfig.packets_per_flow = 8;
  auto matrix =
      workload::TrafficMatrix::Builder{}.net(net).config(wconfig).build();
  EXPECT_TRUE(matrix.ok());
  EXPECT_TRUE((*matrix)->launch().ok());
  net.sim().run_all();
  EXPECT_GT((*matrix)->report().packets_delivered, 0u);
  return net.sim().schedule_digest();
}

TEST(SchedulerEquivalence, ManyFlowWorkload) {
  controlplane::ScionNetwork::Options options;
  options.seed = 0xCA4FA16;
  const auto digest = run_many_flow_with(options);
  EXPECT_EQ(digest.executed, 792u);
  EXPECT_EQ(digest.hash, 0x7d1758e3a98d3f51ULL);
}

// The full many-flow workload (16 hosts x 96 flows x 40 packets), run in
// 10 ms run_until slices: each slice must stop between the same two
// events the pinned schedule has.
TEST(SchedulerEquivalence, ManyFlowWorkloadRunInSlices) {
  controlplane::ScionNetwork net{topology::build_sciera()};
  workload::WorkloadConfig wconfig;
  wconfig.hosts = 16;
  wconfig.flows = 96;
  wconfig.packets_per_flow = 40;
  auto matrix =
      workload::TrafficMatrix::Builder{}.net(net).config(wconfig).build();
  ASSERT_TRUE(matrix.ok());
  ASSERT_TRUE((*matrix)->launch().ok());
  while (net.sim().pending_events() > 0) {
    net.sim().run_until(net.sim().now() + 10 * kMillisecond);
  }
  EXPECT_EQ(net.sim().executed_events(), 21'640u);
  EXPECT_EQ(net.sim().schedule_hash(), 0x5b58e65f910efb98ULL);
}

// --- Batched router equivalence -------------------------------------------
// The batched border-router fast path (parse the whole same-tick batch,
// then verify/forward it) must be schedule-invisible: a full seeded
// scenario run with batching on and off produces the identical
// ScheduleDigest, not merely the same delivery counts. Parsing schedules
// no events, so staging it per-batch cannot reorder anything — these
// tests pin that argument against future batch-stage changes.

controlplane::ScionNetwork::Options router_mode_options(std::uint64_t seed,
                                                        bool batched) {
  controlplane::ScionNetwork::Options options;
  options.seed = seed;
  options.router.batched = batched;
  return options;
}

TEST(BatchedRouterEquivalence, FailoverScenarioDigestsMatch) {
  const auto scalar = run_failover_with(router_mode_options(0x5EED, false));
  const auto batched = run_failover_with(router_mode_options(0x5EED, true));
  EXPECT_EQ(scalar, batched)
      << "scalar hash " << scalar.hash << " (" << scalar.executed
      << " events) vs batched hash " << batched.hash << " ("
      << batched.executed << " events)";
  EXPECT_GT(scalar.executed, 0u);
}

TEST(BatchedRouterEquivalence, ManyFlowWorkloadDigestsMatch) {
  const auto scalar = run_many_flow_with(router_mode_options(0xCA4FA16, false));
  const auto batched = run_many_flow_with(router_mode_options(0xCA4FA16, true));
  EXPECT_EQ(scalar, batched)
      << "scalar hash " << scalar.hash << " (" << scalar.executed
      << " events) vs batched hash " << batched.hash << " ("
      << batched.executed << " events)";
  EXPECT_GT(scalar.executed, 0u);
}

// --- TrafficMatrix builder validation --------------------------------------

TEST(TrafficMatrixBuilder, RequiresNet) {
  const auto result = workload::TrafficMatrix::Builder{}.build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kInvalidArgument);
}

TEST(TrafficMatrixBuilder, RejectsDegenerateMatrices) {
  controlplane::ScionNetwork net{topology::build_sciera()};
  const auto reject = [&net](workload::WorkloadConfig config) {
    return workload::TrafficMatrix::Builder{}
        .net(net)
        .config(std::move(config))
        .build();
  };
  workload::WorkloadConfig config;
  config.hosts = 1;
  EXPECT_FALSE(reject(config).ok());
  config = workload::WorkloadConfig{};
  config.flows = 0;
  EXPECT_FALSE(reject(config).ok());
  config = workload::WorkloadConfig{};
  config.packets_per_flow = 0;
  EXPECT_FALSE(reject(config).ok());
  config = workload::WorkloadConfig{};
  config.mean_interval = 0;
  EXPECT_FALSE(reject(config).ok());
  config = workload::WorkloadConfig{};
  config.mean_interval = -5;
  EXPECT_FALSE(reject(config).ok());
  config = workload::WorkloadConfig{};
  config.start_window = -1;
  EXPECT_FALSE(reject(config).ok());
}

TEST(TrafficMatrixBuilder, RejectsUnknownPlacementAs) {
  controlplane::ScionNetwork net{topology::build_sciera()};
  workload::WorkloadConfig config;
  config.ases = {a::uva(), IsdAs::parse("99-99").value()};
  const auto result = workload::TrafficMatrix::Builder{}
                          .net(net)
                          .config(config)
                          .build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kNotFound);
}

TEST(TrafficMatrixBuilder, BuildsAndLaunchesValidatedMatrix) {
  controlplane::ScionNetwork net{topology::build_sciera()};
  workload::WorkloadConfig config;
  config.hosts = 4;
  config.flows = 6;
  config.packets_per_flow = 3;
  auto matrix = workload::TrafficMatrix::Builder{}
                    .net(net)
                    .config(config)
                    .build();
  ASSERT_TRUE(matrix.ok());
  ASSERT_TRUE((*matrix)->launch().ok());
  net.sim().run_all();
  EXPECT_GT((*matrix)->report().packets_delivered, 0u);
}

// --- FramePool ------------------------------------------------------------

TEST(FramePoolTest, ForwardingReusesFramesAndLeaksNothing) {
  auto& pool = dataplane::FramePool::global();
  const auto before = pool.stats();
  // Two identical runs: the second draws from frames the first released.
  for (int run = 0; run < 2; ++run) {
    (void)run_failover_scenario();
  }
  const auto after = pool.stats();
  EXPECT_GT(after.acquired, before.acquired);
  EXPECT_GT(after.reused, before.reused);
  // Leak check: every frame acquired during the runs was released back
  // (ASan additionally verifies no frame memory was lost or double-freed).
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.acquired - before.acquired,
            (after.allocated - before.allocated) +
                (after.reused - before.reused));
  EXPECT_GE(after.pooled, 0);
}

TEST(FramePoolTest, DedicatedPoolRecyclesBufferCapacity) {
  dataplane::FramePool pool{{.max_pooled = 2}};
  const simnet::Frame* first_frame = nullptr;
  {
    auto frame = pool.acquire();
    first_frame = frame.get();
    frame->bytes.resize(1200);  // grow the payload buffer
  }
  EXPECT_EQ(pool.stats().pooled, 1);
  {
    auto frame = pool.acquire();
    // Same arena slot back, scrubbed, with its capacity intact.
    EXPECT_EQ(frame.get(), first_frame);
    EXPECT_EQ(frame->bytes.size(), 0u);
    EXPECT_GE(frame->bytes.capacity(), 1200u);
  }
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().outstanding, 0);
}

TEST(FramePoolTest, ControlBlocksRecycleWithTheFrames) {
  // The shared_ptr control block must recycle alongside the frame:
  // steady-state acquire/release cycles may not touch the allocator at
  // all. One node is minted on the cold first acquire; every later
  // acquire reuses it.
  dataplane::FramePool pool{{.max_pooled = 2}};
  { auto frame = pool.acquire(); }
  const auto cold = pool.stats();
  EXPECT_EQ(cold.ctrl_allocated, 1u);
  EXPECT_EQ(cold.ctrl_reused, 0u);
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto frame = pool.acquire();
    frame->bytes.assign(64, std::uint8_t{0xAB});
  }
  const auto warm = pool.stats();
  EXPECT_EQ(warm.ctrl_allocated, 1u);  // no new allocator hits
  EXPECT_EQ(warm.ctrl_reused, 8u);
  EXPECT_EQ(warm.outstanding, 0);
}

TEST(FramePoolTest, MaxPooledBoundsTheFreeList) {
  dataplane::FramePool pool{{.max_pooled = 2}};
  {
    auto a1 = pool.acquire();
    auto a2 = pool.acquire();
    auto a3 = pool.acquire();
    auto a4 = pool.acquire();
  }
  EXPECT_EQ(pool.stats().pooled, 2);  // the rest were freed, not hoarded
  pool.trim();
  EXPECT_EQ(pool.stats().pooled, 0);
}

}  // namespace
}  // namespace sciera
