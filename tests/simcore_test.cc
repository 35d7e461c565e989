// Scheduler-equivalence suite: the calendar-queue backend must reproduce
// the binary heap's exact event schedule — identical ScheduleDigest on the
// same seeded scenario — on raw timer workloads, a campaign-scale hold
// model, sparse far-future schedules, full-network failover, and a
// many-flow traffic matrix. Plus an exact wheel-geometry gate on the
// overflow heap, the input validation of scheduler configs and of the
// TrafficMatrix builder, and FramePool reuse/leak assertions (run under
// ASan in the sanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "controlplane/control_plane.h"
#include "dataplane/frame_pool.h"
#include "dataplane/scmp.h"
#include "obs/metrics.h"
#include "simnet/simulator.h"
#include "topology/sciera_net.h"
#include "workload/workload.h"

namespace sciera {
namespace {

namespace a = topology::ases;

simnet::SchedulerConfig config_for(simnet::SchedulerKind kind) {
  simnet::SchedulerConfig config;
  config.kind = kind;
  return config;
}

// Runs the same seeded scenario under both backends and expects identical
// digests; returns the (common) digest for further assertions.
simnet::ScheduleDigest expect_backends_agree(
    const std::function<simnet::ScheduleDigest(simnet::SchedulerConfig)>&
        scenario) {
  const auto heap = scenario(config_for(simnet::SchedulerKind::kBinaryHeap));
  const auto calendar =
      scenario(config_for(simnet::SchedulerKind::kCalendarQueue));
  EXPECT_EQ(heap, calendar)
      << "heap hash " << heap.hash << " (" << heap.executed
      << " events) vs calendar hash " << calendar.hash << " ("
      << calendar.executed << " events)";
  return heap;
}

// --- Raw simulator workloads ---------------------------------------------

TEST(SchedulerEquivalence, SeededTimerChains) {
  const auto digest =
      expect_backends_agree([](simnet::SchedulerConfig config) {
        simnet::Simulator sim{config};
        Rng rng{0xD16E57, "chains"};
        std::function<void(int)> tick = [&](int remaining) {
          if (remaining <= 0) return;
          sim.schedule_after(
              static_cast<Duration>(rng.next_below(kMillisecond) + 1),
              [&tick, remaining] { tick(remaining - 1); });
        };
        for (int chain = 0; chain < 16; ++chain) tick(200);
        sim.run_all();
        return sim.schedule_digest();
      });
  EXPECT_EQ(digest.executed, 16u * 200u);
}

TEST(SchedulerEquivalence, SameTickEventsKeepFifoOrder) {
  // Many events at identical timestamps: ordering must fall back to
  // insertion sequence in both backends.
  expect_backends_agree([](simnet::SchedulerConfig config) {
    simnet::Simulator sim{config};
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        sim.schedule(round * kMillisecond, [] {});
      }
    }
    sim.run_all();
    return sim.schedule_digest();
  });
}

TEST(SchedulerEquivalence, SparseFarFutureSchedule) {
  // Probe-campaign shape: events minutes apart, far beyond the wheel
  // horizon, forcing the overflow heap and cursor teleport paths.
  expect_backends_agree([](simnet::SchedulerConfig config) {
    simnet::Simulator sim{config};
    Rng rng{0xFA5, "sparse"};
    for (int i = 0; i < 64; ++i) {
      const auto when = static_cast<SimTime>(rng.next_below(20 * kMinute));
      sim.schedule(when, [&sim, &rng] {
        sim.schedule_after(
            static_cast<Duration>(rng.next_below(kMinute) + 1), [] {});
      });
    }
    sim.run_all();
    return sim.schedule_digest();
  });
}

TEST(SchedulerEquivalence, TinyWheelStressesRotation) {
  // A deliberately undersized wheel (4 buckets x ~1us) makes every push
  // wrap the cursor and spill to the overflow heap; ordering must survive.
  expect_backends_agree([](simnet::SchedulerConfig config) {
    config.bucket_width = Duration{1} << 10;
    config.bucket_count = 4;
    simnet::Simulator sim{config};
    Rng rng{0x71AF, "tiny"};
    std::function<void(int)> tick = [&](int remaining) {
      if (remaining <= 0) return;
      sim.schedule_after(
          static_cast<Duration>(rng.next_below(100 * kMicrosecond) + 1),
          [&tick, remaining] { tick(remaining - 1); });
    };
    for (int chain = 0; chain < 8; ++chain) tick(100);
    sim.run_all();
    return sim.schedule_digest();
  });
}

TEST(SchedulerEquivalence, RunUntilDeadlineAgrees) {
  // Partial drains: the deadline cut must land between the same two
  // events under both backends.
  expect_backends_agree([](simnet::SchedulerConfig config) {
    simnet::Simulator sim{config};
    Rng rng{0xDEAD11, "deadline"};
    for (int i = 0; i < 500; ++i) {
      sim.schedule(static_cast<SimTime>(rng.next_below(10 * kMillisecond)),
                   [] {});
    }
    sim.run_until(5 * kMillisecond);
    sim.run_all();
    return sim.schedule_digest();
  });
}

TEST(SchedulerEquivalence, CampaignScaleHoldModel) {
  // Hold model at a campaign-scale pending population (Section 5.4 runs
  // hold hundreds of thousands of in-flight probes): 20,000 events stay
  // pending while 200,000 more execute, each scheduling one successor at
  // now + U(0, 2^30 ns]. A 2^14 ns x 2^16-bucket wheel spreads that
  // population to a handful of events per bucket.
  const auto digest =
      expect_backends_agree([](simnet::SchedulerConfig config) {
        config.bucket_width = Duration{1} << 14;
        config.bucket_count = std::size_t{1} << 16;
        simnet::Simulator sim{config};
        Rng rng{0xB31C, "hold"};
        constexpr auto kHorizonMask = (std::uint64_t{1} << 30) - 1;
        std::uint64_t remaining = 200'000;
        std::function<void()> schedule_one = [&] {
          const auto offset =
              1 + static_cast<Duration>(rng.next_u64() & kHorizonMask);
          sim.schedule_after(offset, [&] {
            if (remaining == 0) return;
            --remaining;
            schedule_one();
          });
        };
        for (int i = 0; i < 20'000; ++i) schedule_one();
        sim.run_all();
        return sim.schedule_digest();
      });
  EXPECT_EQ(digest.executed, 220'000u);
  EXPECT_EQ(digest.hash, 0x128ddd7ecd4c2b52ULL);
}

// --- Full-network scenarios ----------------------------------------------

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

simnet::ScheduleDigest run_failover_scenario(simnet::SchedulerConfig config) {
  controlplane::ScionNetwork::Options options;
  options.seed = 0x5EED;
  options.scheduler = config;
  return run_failover_with(options);
}

TEST(SchedulerEquivalence, FailoverScenario) {
  const auto digest = expect_backends_agree(run_failover_scenario);
  EXPECT_GT(digest.executed, 0u);
}

simnet::ScheduleDigest run_many_flow_with(
    controlplane::ScionNetwork::Options options) {
  // Campaign-scale shape: many concurrent flows across every AS, the
  // population the calendar queue exists for.
  controlplane::ScionNetwork net{topology::build_sciera(), options};
  workload::WorkloadConfig wconfig;
  wconfig.hosts = 6;
  wconfig.flows = 18;
  wconfig.packets_per_flow = 8;
  workload::TrafficMatrix matrix{net, wconfig};
  EXPECT_TRUE(matrix.launch().ok());
  net.sim().run_all();
  EXPECT_GT(matrix.report().packets_delivered, 0u);
  return net.sim().schedule_digest();
}

simnet::ScheduleDigest run_many_flow_scenario(simnet::SchedulerConfig config) {
  controlplane::ScionNetwork::Options options;
  options.seed = 0xCA4FA16;
  options.scheduler = config;
  return run_many_flow_with(options);
}

TEST(SchedulerEquivalence, ManyFlowWorkload) {
  const auto digest = expect_backends_agree(run_many_flow_scenario);
  EXPECT_GT(digest.executed, 0u);
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

TEST(BatchedRouterEquivalence, BatchedModeAgreesAcrossSchedulers) {
  // Batching composes with the scheduler-equivalence contract: the
  // batched fast path under the calendar queue still reproduces the
  // binary heap's schedule.
  expect_backends_agree([](simnet::SchedulerConfig config) {
    auto options = router_mode_options(0x5EED, true);
    options.scheduler = config;
    return run_failover_with(options);
  });
}

// --- Wheel geometry -------------------------------------------------------
// The default wheel horizon must cover the workload's own timescale, or
// every control-plane timer goes through the overflow heap twice (heap
// insert + wheel migration). Counted exactly: the peak population of
// the network's overflow heap, sampled after every 10 ms slice.

constexpr std::string_view kOverflowSeries = "sciera_sim_overflow_events";

std::int64_t peak_overflow_events(simnet::SchedulerConfig scheduler) {
  // The registry is process-wide: read only this network's own series,
  // the one its construction registers.
  auto& registry = obs::MetricsRegistry::global();
  const auto series_labels = [&registry] {
    std::vector<obs::Labels> labels;
    for (const auto& sample : registry.snapshot()) {
      if (sample.name == kOverflowSeries) labels.push_back(sample.labels);
    }
    return labels;
  };
  const auto before = series_labels();
  controlplane::ScionNetwork::Options options;
  options.scheduler = scheduler;
  controlplane::ScionNetwork net{topology::build_sciera(), options};
  const obs::Gauge* overflow = nullptr;
  for (const auto& labels : series_labels()) {
    if (std::find(before.begin(), before.end(), labels) == before.end()) {
      overflow = &registry.gauge(kOverflowSeries, labels);
    }
  }
  EXPECT_NE(overflow, nullptr);
  if (overflow == nullptr) return -1;

  workload::WorkloadConfig wconfig;
  wconfig.hosts = 16;
  wconfig.flows = 96;
  wconfig.packets_per_flow = 40;
  auto matrix =
      workload::TrafficMatrix::Builder{}.net(net).config(wconfig).build();
  EXPECT_TRUE(matrix.ok());
  if (!matrix.ok()) return -1;
  EXPECT_TRUE((*matrix)->launch().ok());
  std::int64_t peak = 0;
  while (net.sim().pending_events() > 0) {
    net.sim().run_until(net.sim().now() + 10 * kMillisecond);
    peak = std::max(peak, overflow->value());
  }
  // Geometry never changes the schedule itself.
  EXPECT_EQ(net.sim().executed_events(), 21'640u);
  EXPECT_EQ(net.sim().schedule_hash(), 0x5b58e65f910efb98ULL);
  return peak;
}

TEST(SchedulerGeometry, DefaultWheelKeepsManyFlowWorkloadOutOfOverflow) {
  EXPECT_EQ(peak_overflow_events(simnet::SchedulerConfig{}), 0);
  // The probe is live: the pre-widening ~134 ms wheel (2^16 ns x 2048
  // buckets) parks a measurable share of the same run in the heap.
  simnet::SchedulerConfig narrow;
  narrow.bucket_width = Duration{1} << 16;
  narrow.bucket_count = 2048;
  EXPECT_EQ(peak_overflow_events(narrow), 1599);
}

// --- Scheduler-config validation -------------------------------------------

TEST(SchedulerConfigValidation, RejectsDegenerateGeometry) {
  simnet::SchedulerConfig config;
  config.bucket_width = 0;
  EXPECT_FALSE(simnet::validate_scheduler_config(config).ok());
  config = simnet::SchedulerConfig{};
  config.bucket_width = 3;  // not a power of two
  EXPECT_FALSE(simnet::validate_scheduler_config(config).ok());
  config = simnet::SchedulerConfig{};
  config.bucket_count = 0;
  EXPECT_FALSE(simnet::validate_scheduler_config(config).ok());
  config = simnet::SchedulerConfig{};
  config.bucket_count = 48;  // not a power of two
  EXPECT_FALSE(simnet::validate_scheduler_config(config).ok());
}

TEST(SchedulerConfigValidation, AcceptsDefaultAndShardedConfigs) {
  EXPECT_TRUE(simnet::validate_scheduler_config({}).ok());
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
    (void)run_failover_scenario(
        config_for(simnet::SchedulerKind::kCalendarQueue));
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
  const dataplane::UnderlayFrame* first_frame = nullptr;
  {
    auto frame = pool.acquire();
    first_frame = frame.get();
    frame->scion_bytes.resize(1200);  // grow the payload buffer
    frame->src_ip = 0x0A000001;
  }
  EXPECT_EQ(pool.stats().pooled, 1);
  {
    auto frame = pool.acquire();
    // Same arena slot back, scrubbed, with its capacity intact.
    EXPECT_EQ(frame.get(), first_frame);
    EXPECT_EQ(frame->scion_bytes.size(), 0u);
    EXPECT_GE(frame->scion_bytes.capacity(), 1200u);
    EXPECT_EQ(frame->src_ip, 0u);
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
    frame->scion_bytes.assign(64, std::uint8_t{0xAB});
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
