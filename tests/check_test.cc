// Covers the SCIERA_CHECK/SCIERA_DCHECK invariant machinery (counters,
// fatal vs. debug behavior) and the simnet determinism auditor: the same
// seed must reproduce the exact event schedule (hash over every executed
// (time, seq) pair), and a perturbed seed must not.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "controlplane/control_plane.h"
#include "dataplane/scmp.h"
#include "simnet/audit.h"
#include "simnet/simulator.h"
#include "topology/sciera_net.h"

namespace sciera {
namespace {

namespace a = topology::ases;
using simnet::Domain;

// Restores the process-default abort mode even when a test fails early.
class CountModeGuard {
 public:
  CountModeGuard() {
    CheckRegistry::instance().set_fail_mode(CheckFailMode::kCount);
  }
  ~CountModeGuard() {
    CheckRegistry::instance().set_fail_mode(CheckFailMode::kAbort);
  }
};

TEST(CheckRegistryTest, CountViolationIncrements) {
  auto& registry = CheckRegistry::instance();
  const auto before = registry.count("test.counter_a");
  count_violation("test.counter_a");
  count_violation("test.counter_a");
  count_violation("test.counter_b");
  EXPECT_EQ(registry.count("test.counter_a"), before + 2);
  EXPECT_GE(registry.count("test.counter_b"), 1u);
  EXPECT_GE(registry.total(), before + 3);
}

TEST(CheckRegistryTest, SnapshotIsSortedByCategory) {
  count_violation("test.zzz");
  count_violation("test.aaa");
  const auto snapshot = CheckRegistry::instance().snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

TEST(CheckMacroTest, FailureCountsWithoutDyingInCountMode) {
  CountModeGuard guard;
  auto& registry = CheckRegistry::instance();
  const auto before = registry.count("test.check_macro");
  const int value = 3;
  SCIERA_CHECK(value == 3, "test.check_macro");  // passes: no count
  EXPECT_EQ(registry.count("test.check_macro"), before);
  SCIERA_CHECK(value == 4, "test.check_macro");  // fails: counted, survives
  SCIERA_CHECK(value == 5, "test.check_macro");
  EXPECT_EQ(registry.count("test.check_macro"), before + 2);
}

using CheckMacroDeathTest = ::testing::Test;

TEST(CheckMacroDeathTest, FailureAbortsInDefaultMode) {
  ASSERT_EQ(CheckRegistry::instance().fail_mode(), CheckFailMode::kAbort);
  EXPECT_DEATH(SCIERA_CHECK(1 == 2, "test.fatal"), "invariant violated");
}

TEST(CheckMacroTest, DcheckMatchesBuildMode) {
  CountModeGuard guard;
  auto& registry = CheckRegistry::instance();
  const auto before = registry.count("test.dcheck");
  int evaluations = 0;
  SCIERA_DCHECK((++evaluations, false), "test.dcheck");
#if SCIERA_DCHECK_IS_ON
  // Debug flavor: the condition ran and the failure was recorded.
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(registry.count("test.dcheck"), before + 1);
#else
  // Release flavor: compiled out entirely — no evaluation, no count.
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(registry.count("test.dcheck"), before);
#endif
}

// --- Schedule digest on the raw simulator --------------------------------

// A small seeded workload: chained timers with RNG-driven delays.
simnet::ScheduleDigest run_timer_scenario(std::uint64_t seed) {
  simnet::Simulator sim;
  auto rng = std::make_shared<Rng>(seed);
  std::function<void(int)> tick = [&sim, rng, &tick](int remaining) {
    if (remaining <= 0) return;
    sim.schedule_after(
        Domain::current(),
        static_cast<Duration>(rng->next_below(kMillisecond) + 1),
        [&tick, remaining] { tick(remaining - 1); });
  };
  for (int chain = 0; chain < 8; ++chain) tick(50);
  sim.run_all();
  return sim.schedule_digest();
}

TEST(ScheduleDigestTest, IdenticalRunsProduceIdenticalDigests) {
  const auto first = run_timer_scenario(42);
  const auto second = run_timer_scenario(42);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.executed, 0u);
}

TEST(ScheduleDigestTest, DifferentSeedsDiverge) {
  EXPECT_NE(run_timer_scenario(42).hash, run_timer_scenario(43).hash);
}

TEST(ScheduleDigestTest, DigestCoversOrderNotJustCount) {
  // Two simulators executing the same number of events at different times
  // must not collide.
  simnet::Simulator early;
  early.schedule_after(Domain::current(), 1 * kMillisecond, [] {});
  early.run_all();
  simnet::Simulator late;
  late.schedule_after(Domain::current(), 2 * kMillisecond, [] {});
  late.run_all();
  EXPECT_EQ(early.executed_events(), late.executed_events());
  EXPECT_NE(early.schedule_hash(), late.schedule_hash());
}

TEST(SimulatorInvariantTest, SchedulingInThePastIsClampedAndAudited) {
  CountModeGuard guard;
  auto& registry = CheckRegistry::instance();
  const auto before = registry.count("simnet.schedule_in_past");
  simnet::Simulator sim;
  sim.schedule_after(Domain::current(), 5 * kMillisecond, [&sim] {
    // Absolute time 1ms is already in the past at 5ms.
    sim.schedule(Domain::current(), 1 * kMillisecond, [] {});
  });
  sim.run_all();
  EXPECT_EQ(registry.count("simnet.schedule_in_past"), before + 1);
  EXPECT_EQ(sim.now(), 5 * kMillisecond);  // clamped, not rewound
}

// --- Determinism auditor on the full SCIERA network ----------------------

simnet::ScheduleDigest run_network_scenario(std::uint64_t seed) {
  controlplane::ScionNetwork::Options options;
  options.seed = seed;
  controlplane::ScionNetwork net{topology::build_sciera(), options};

  const dataplane::Address host{a::uva(), 0x0A000001};
  int delivered = 0;
  EXPECT_TRUE(net.register_host(host, [&](const dataplane::ScionPacket&,
                                          SimTime) { ++delivered; })
                  .ok());
  const auto paths = net.paths(a::uva(), a::ufms());
  EXPECT_FALSE(paths.empty());
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
  net.sim().run_for(2 * kSecond);
  EXPECT_GT(delivered, 0);
  return net.sim().schedule_digest();
}

TEST(DeterminismAuditTest, SameSeedReplaysIdenticalSchedule) {
  const auto report = simnet::audit_determinism(
      [] { return run_network_scenario(0x5C1E2A); });
  EXPECT_TRUE(report.deterministic()) << report.to_string();
  EXPECT_GT(report.first.executed, 0u);
  EXPECT_NE(report.to_string().find("deterministic"), std::string::npos);
}

TEST(DeterminismAuditTest, PerturbedSeedDivergesSchedule) {
  const auto base = run_network_scenario(0x5C1E2A);
  const auto perturbed = run_network_scenario(0x5C1E2B);
  EXPECT_NE(base.hash, perturbed.hash);
}

TEST(DeterminismAuditTest, MismatchIsReportedAndAudited) {
  CountModeGuard guard;
  auto& registry = CheckRegistry::instance();
  const auto before = registry.count("simnet.nondeterministic_schedule");
  // A deliberately nondeterministic scenario: the seed changes per run.
  std::uint64_t next_seed = 1;
  const auto report = simnet::audit_determinism(
      [&next_seed] { return run_timer_scenario(next_seed++); });
  EXPECT_FALSE(report.deterministic());
  EXPECT_NE(report.to_string().find("NONDETERMINISTIC"), std::string::npos);
  EXPECT_EQ(registry.count("simnet.nondeterministic_schedule"), before + 1);
}

}  // namespace
}  // namespace sciera
