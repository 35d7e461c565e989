// Chaos engine and resilience tests: the circuit-breaker primitive,
// fault-plan validation and application (link flaps, regional outages,
// control-service outages, router crashes), daemon degradation under
// control-plane loss, bit-identical replay of armed plans, and the
// headline A/B: survivability of the KREONET ring cut with the
// breaker/failover/stale-serving machinery on versus off.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos_engine.h"
#include "chaos/fault_plan.h"
#include "chaos/soak.h"
#include "endhost/pan.h"
#include "simnet/audit.h"
#include "topology/sciera_net.h"
#include "workload/workload.h"

namespace sciera::chaos {
namespace {

namespace a = topology::ases;
using controlplane::ScionNetwork;

// --- Circuit breaker ----------------------------------------------------------

TEST(Backoff, CircuitBreakerLifecycle) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.open_for = 10 * kSecond;
  CircuitBreaker breaker{config};

  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);
  breaker.record_failure(1 * kSecond);
  EXPECT_TRUE(breaker.allow(1 * kSecond));  // below threshold
  breaker.record_failure(2 * kSecond);      // third strike: opens
  EXPECT_FALSE(breaker.allow(5 * kSecond));
  EXPECT_EQ(breaker.times_opened(), 1u);

  // The window elapses: half-open, one probe allowed. A failed probe
  // re-opens from now.
  EXPECT_TRUE(breaker.allow(12 * kSecond));
  breaker.record_failure(12 * kSecond);
  EXPECT_FALSE(breaker.allow(21 * kSecond));
  EXPECT_EQ(breaker.times_opened(), 2u);

  // A successful probe closes it and clears the failure streak.
  EXPECT_TRUE(breaker.allow(22 * kSecond));
  breaker.record_success();
  EXPECT_TRUE(breaker.allow(22 * kSecond));
  breaker.record_failure(23 * kSecond);
  breaker.record_failure(23 * kSecond);
  EXPECT_TRUE(breaker.allow(23 * kSecond));  // streak restarted from zero
}

// --- Fault plan validation and application -----------------------------------

TEST(Chaos, ArmRejectsUnknownTargetsWithoutScheduling) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};

  FaultPlan bad_link;
  bad_link.add({0, FaultKind::kLinkFlap, "no-such-link", 0.0, kSecond});
  EXPECT_FALSE(engine.arm(bad_link).ok());

  FaultPlan bad_region;
  bad_region.add({0, FaultKind::kRegionOutage, "Atlantis", 0.0, kSecond});
  EXPECT_FALSE(engine.arm(bad_region).ok());

  FaultPlan bad_router;
  bad_router.add({0, FaultKind::kRouterCrash, "99-999", 0.0, kSecond});
  EXPECT_FALSE(engine.arm(bad_router).ok());

  // Nothing was scheduled by the failed arms.
  net.sim().run_for(5 * kSecond);
  EXPECT_EQ(engine.faults_injected(), 0u);
}

TEST(Chaos, RegionOutageCutsEveryIncidentLinkAndReverts) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};
  FaultPlan plan;
  plan.name = "sg-out";
  plan.add({1 * kSecond, FaultKind::kRegionOutage, a::kisti_sg().to_string(),
            0.0, 2 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  std::vector<std::string> incident;
  for (const auto& link : net.topology().links()) {
    if (link.a == a::kisti_sg() || link.b == a::kisti_sg()) {
      incident.push_back(link.label);
    }
  }
  ASSERT_GT(incident.size(), 4u);  // ring x2, parallel bundle, leaves

  net.sim().run_for(1500 * kMillisecond);  // mid-outage
  for (const auto& label : incident) {
    EXPECT_FALSE(net.link(label)->is_up()) << label;
  }
  EXPECT_TRUE(net.link("geant-bridges")->is_up());  // uncorrelated link

  net.sim().run_for(2 * kSecond);  // past the hold
  for (const auto& label : incident) {
    EXPECT_TRUE(net.link(label)->is_up()) << label;
  }
  EXPECT_EQ(engine.faults_injected(), 1u);
}

TEST(Chaos, ControlOutageAppliesAndReverts) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};
  FaultPlan plan;
  plan.name = "cs-maintenance";
  plan.add({1 * kSecond, FaultKind::kControlOutage, a::uva().to_string(),
            0.0, 2 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  auto* uva_cs = net.control_service_set(a::uva())->primary();
  EXPECT_TRUE(uva_cs->available());

  net.sim().run_for(1500 * kMillisecond);
  EXPECT_FALSE(uva_cs->available());
  // An unavailable service drops sync lookups without caching anything.
  EXPECT_TRUE(uva_cs->lookup_paths_now(a::ovgu())->empty());
  EXPECT_GT(uva_cs->lookups_dropped(), 0u);

  net.sim().run_for(2 * kSecond);
  EXPECT_TRUE(uva_cs->available());
  EXPECT_FALSE(uva_cs->lookup_paths_now(a::ovgu())->empty());
}

TEST(Chaos, RouterCrashBlackholesUntilRestart) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};
  FaultPlan plan;
  plan.name = "crash";
  plan.add({1 * kSecond, FaultKind::kRouterCrash, a::geant().to_string(),
            0.0, 2 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  auto* router = net.router(a::geant());
  EXPECT_TRUE(router->online());
  net.sim().run_for(1500 * kMillisecond);
  EXPECT_FALSE(router->online());
  EXPECT_EQ(router->stats().crashes, 1u);
  net.sim().run_for(2 * kSecond);
  EXPECT_TRUE(router->online());
}

TEST(Chaos, LossStormRevertsToPriorLinkConditions) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};
  const double before = net.link("kreonet-sg-ams")->config().loss_probability;
  FaultPlan plan;
  plan.name = "storm";
  plan.add({1 * kSecond, FaultKind::kLossStorm, "kreonet-sg-ams", 0.25,
            2 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());
  net.sim().run_for(1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(net.link("kreonet-sg-ams")->config().loss_probability,
                   0.25);
  net.sim().run_for(2 * kSecond);
  EXPECT_DOUBLE_EQ(net.link("kreonet-sg-ams")->config().loss_probability,
                   before);
}

// --- Daemon resilience under control-plane loss ------------------------------

// The sync ladder's per-(destination, replica) breaker: three failed
// fetches against a dead primary trip it once. While it is open the
// daemon fails fast without asking the primary, even after the service is
// back; once open_for elapses the half-open probe fetches again.
TEST(Daemon, SyncLookupTripsBreakerFailsFastAndRecovers) {
  ScionNetwork net{topology::build_sciera()};
  endhost::Daemon daemon{net, a::uva()};
  auto* primary = net.control_service_set(a::uva())->primary();

  primary->set_available(false);
  for (int i = 0; i < 3; ++i) {
    const auto lookup = daemon.paths_detailed(a::ovgu());
    // Nothing cached yet, so each failure degrades to an explicit empty.
    EXPECT_EQ(lookup.source, endhost::PathSource::kUnavailable);
    EXPECT_TRUE(lookup.paths.empty());
    EXPECT_FALSE(lookup.stale);
  }
  EXPECT_EQ(daemon.breaker_trips(), 1u);
  EXPECT_EQ(daemon.degraded_empty(), 3u);

  // The service is back, but the open breaker fails fast: the primary
  // never sees the request.
  primary->set_available(true);
  EXPECT_EQ(daemon.paths_detailed(a::ovgu()).source,
            endhost::PathSource::kUnavailable);
  EXPECT_EQ(primary->lookups_total(), 0u);

  // The window elapses and the half-open probe fetches.
  net.sim().run_for(CircuitBreaker::Config{}.open_for);
  const auto fetched = daemon.paths_detailed(a::ovgu());
  EXPECT_EQ(fetched.source, endhost::PathSource::kFetched);
  EXPECT_FALSE(fetched.paths.empty());
  EXPECT_EQ(daemon.breaker_trips(), 1u);
}

TEST(Daemon, SyncLookupServesStaleMarkedPathsDuringOutage) {
  ScionNetwork net{topology::build_sciera()};
  endhost::Daemon::Config config;
  config.path_cache_ttl = 1 * kSecond;
  endhost::Daemon daemon{net, a::uva(), config};

  // Warm the cache, then let it expire during a control outage.
  const auto warm = daemon.paths_detailed(a::ovgu());
  EXPECT_EQ(warm.source, endhost::PathSource::kFetched);
  net.control_service_set(a::uva())->primary()->set_available(false);
  net.sim().run_for(2 * kSecond);

  const auto degraded = daemon.paths_detailed(a::ovgu());
  EXPECT_EQ(degraded.source, endhost::PathSource::kStaleCache);
  EXPECT_TRUE(degraded.stale);
  EXPECT_FALSE(degraded.paths.empty());
  EXPECT_GT(daemon.stale_served(), 0u);

  // The legacy configuration answers empty instead.
  endhost::Daemon::Config legacy;
  legacy.path_cache_ttl = 1 * kSecond;
  legacy.resilience.enabled = false;
  endhost::Daemon blunt{net, a::uva(), legacy};
  const auto empty = blunt.paths_detailed(a::ovgu());
  EXPECT_EQ(empty.source, endhost::PathSource::kUnavailable);
  EXPECT_TRUE(empty.paths.empty());
}

// --- End-to-end: correlated dual-link outage (ISSUE satellite) ---------------

// The paper's failure story end to end: the active transatlantic path
// dies mid-flight together with its parallel circuit while every control
// service is in an outage window. SCMP quarantines the dead path, the
// daemon's cache has expired so path resolution rides stale-but-marked
// entries, and traffic keeps flowing over the Amsterdam detour. When the
// plan re-ups the links and the penalty lapses, fresh fetches resume.
TEST(Chaos, ScmpFailoverSurvivesCorrelatedOutageOnStalePaths) {
  ScionNetwork net{topology::build_sciera()};
  endhost::Daemon::Config config;
  config.path_cache_ttl = 500 * kMillisecond;
  config.down_path_penalty = 2 * kSecond;
  endhost::Daemon daemon{net, a::uva(), config};
  auto ctx = endhost::PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A020220})
                 .daemon(daemon)
                 .build(Rng{20});
  ASSERT_TRUE(ctx.ok());
  int delivered = 0;
  endhost::Daemon dst_daemon{net, a::ovgu()};
  auto dst_ctx = endhost::PanContext::Builder{}
                     .net(net)
                     .address({a::ovgu(), 0x0A020221})
                     .daemon(dst_daemon)
                     .build(Rng{21});
  ASSERT_TRUE(dst_ctx.ok());
  auto sink = endhost::PanSocket::open(**dst_ctx, 8888,
                                       [&](auto&&...) { ++delivered; });
  ASSERT_TRUE(sink.ok());
  auto sock = endhost::PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());

  const auto primary = (*sock)->current_path(a::ovgu());
  ASSERT_TRUE(primary.ok());
  const std::string primary_fp = primary->fingerprint();
  ASSERT_GT(primary->links.size(), 1u);
  const std::string cut_label =
      net.topology().find_link(primary->links[1])->label;
  // The circuit's parallel twin, cut in the same correlated event. The
  // primary path rides one of the two GEANT<->BRIDGES circuits.
  const std::string twin_label =
      cut_label == "geant-bridges" ? "geant-bridges-2" : "geant-bridges";

  (*ctx)->stack().set_scmp_receiver(
      [&](const dataplane::ScionPacket&, const dataplane::ScmpMessage& m,
          SimTime) {
        if (m.is_error()) (*ctx)->report_path_down(primary_fp);
      });

  ChaosEngine engine{net, 42};
  FaultPlan plan;
  plan.name = "dual-cut";
  plan.add({1 * kSecond, FaultKind::kControlOutage, "*", 0.0, 4 * kSecond});
  plan.add({1 * kSecond, FaultKind::kLinkDown, cut_label, 0.0, 3 * kSecond});
  plan.add({1 * kSecond, FaultKind::kLinkDown, twin_label, 0.0, 3 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  // Baseline delivery over the primary path.
  ASSERT_TRUE((*sock)->send_to({a::ovgu(), 0x0A020221}, 8888,
                               bytes_of("pre")).ok());
  net.sim().run_for(500 * kMillisecond);
  EXPECT_EQ(delivered, 1);

  // A packet in flight when the correlated cut lands draws the SCMP
  // error that quarantines the primary path.
  net.sim().schedule(999500 * kMicrosecond, [&] {
    (void)(*sock)->send_to({a::ovgu(), 0x0A020221}, 8888, bytes_of("mid"));
  });
  net.sim().run_until(2 * kSecond);
  EXPECT_EQ(daemon.quarantined(), 1u);

  // Mid-outage: cache stale, control plane dark, primary quarantined —
  // the send still succeeds over a surviving detour on stale paths.
  auto receipt = (*sock)->send_to({a::ovgu(), 0x0A020221}, 8888,
                                  bytes_of("detour"));
  ASSERT_TRUE(receipt.ok());
  EXPECT_NE(receipt->path_fingerprint, primary_fp);
  EXPECT_GT(daemon.stale_served(), 0u);
  net.sim().run_for(1 * kSecond);
  EXPECT_EQ(delivered, 2);

  // Recovery: links re-up at 4s, services at 5s, the quarantine penalty
  // lapses, and lookups go back to fresh fetches.
  net.sim().run_until(6 * kSecond);
  const auto recovered = daemon.paths_detailed(a::ovgu());
  EXPECT_EQ(recovered.source, endhost::PathSource::kFetched);
  bool primary_back = false;
  for (const auto& path : recovered.paths) {
    primary_back = primary_back || path.fingerprint() == primary_fp;
  }
  EXPECT_TRUE(primary_back);
}

// --- Replayability and the survivability A/B ---------------------------------

TEST(Chaos, ArmedPlanReplaysBitIdentically) {
  const auto scenario = [] {
    ScionNetwork net{topology::build_sciera()};
    workload::WorkloadConfig config = soak_default_workload();
    config.hosts = 6;
    config.flows = 12;
    config.packets_per_flow = 30;
    auto matrix =
        workload::TrafficMatrix::Builder{}.net(net).config(config).build();
    EXPECT_TRUE(matrix.ok());
    EXPECT_TRUE((*matrix)->launch().ok());
    ChaosEngine engine{net, 99};
    EXPECT_TRUE(engine.arm(mixed_mayhem_plan()).ok());
    net.sim().run_for(3 * kSecond);
    return net.sim().schedule_digest();
  };
  const auto report = simnet::audit_determinism(scenario);
  EXPECT_TRUE(report.deterministic()) << report.to_string();
}

TEST(Chaos, SoakReportIsDeterministic) {
  SoakOptions options;
  options.seed = 11;
  options.duration = 2 * kSecond;
  options.workload.hosts = 6;
  options.workload.flows = 12;
  options.workload.packets_per_flow = 40;
  const auto first = run_soak(kreonet_ring_cut_plan(), options);
  const auto second = run_soak(kreonet_ring_cut_plan(), options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->schedule_hash, second->schedule_hash);
  EXPECT_EQ(first->executed_events, second->executed_events);
  EXPECT_EQ(first->to_json(), second->to_json());
  EXPECT_GT(first->faults_injected, 0u);
}

// A negative duration is rejected before anything is built; zero is the
// set-up-only soak (build, launch, arm, run nothing) and stays valid.
TEST(Chaos, SoakRejectsNegativeDurationButRunsZero) {
  SoakOptions options;
  options.duration = -5 * kMillisecond;
  const auto negative = run_soak(kreonet_ring_cut_plan(), options);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.error().code, Errc::kInvalidArgument);

  options.duration = 0;
  const auto zero = run_soak(kreonet_ring_cut_plan(), options);
  ASSERT_TRUE(zero.ok()) << zero.error().to_string();
  EXPECT_EQ(zero->duration, 0);
  EXPECT_EQ(zero->packets_sent, 0u);
  EXPECT_TRUE(validate_report_json(zero->to_json()));
}

// The acceptance regression: under the KREONET ring cut, delivery ratio
// with breakers + stale-serving enabled must beat the same seed with the
// resilience machinery disabled.
TEST(Chaos, RingCutSurvivabilityBetterWithResilience) {
  SoakOptions with_resilience;
  with_resilience.seed = 7;
  with_resilience.duration = 4 * kSecond;
  with_resilience.workload.hosts = 8;
  with_resilience.workload.flows = 24;
  with_resilience.workload.packets_per_flow = 60;
  SoakOptions without = with_resilience;
  without.resilience = false;

  const auto resilient = run_soak(kreonet_ring_cut_plan(), with_resilience);
  const auto blunt = run_soak(kreonet_ring_cut_plan(), without);
  ASSERT_TRUE(resilient.ok());
  ASSERT_TRUE(blunt.ok());

  EXPECT_GT(resilient->delivery_ratio, blunt->delivery_ratio);
  EXPECT_GT(resilient->stale_served, 0u);
  EXPECT_EQ(blunt->stale_served, 0u);
  // The legacy stack surfaces the outage as hard-empty lookups instead.
  EXPECT_GT(blunt->degraded_empty, 0u);
  EXPECT_GT(resilient->faults_injected, 0u);
}

// --- Self-healing control plane (ISSUE 5) ------------------------------------

// Boundary regression for Resilience::max_stale_age: an entry aged just
// below the cap still rides the stale ladder; aged exactly to the cap it
// answers kUnavailable (age >= cap, the same >= convention every other
// boundary in the stack uses). A zero cap disables the ceiling.
TEST(Daemon, StaleServingCapsAtMaxStaleAge) {
  ScionNetwork net{topology::build_sciera()};
  endhost::Daemon::Config config;
  config.path_cache_ttl = 1 * kSecond;
  config.resilience.max_stale_age = 5 * kSecond;
  endhost::Daemon capped{net, a::uva(), config};
  endhost::Daemon::Config unbounded_config = config;
  unbounded_config.resilience.max_stale_age = 0;
  endhost::Daemon unbounded{net, a::uva(), unbounded_config};

  // Warm both caches at t=0, then hold the outage past the cap.
  ASSERT_EQ(capped.paths_detailed(a::ovgu()).source,
            endhost::PathSource::kFetched);
  ASSERT_EQ(unbounded.paths_detailed(a::ovgu()).source,
            endhost::PathSource::kFetched);
  net.control_service_set(a::uva())->primary()->set_available(false);

  net.sim().run_for(4999 * kMillisecond);  // age just below the cap
  const auto near_cap = capped.paths_detailed(a::ovgu());
  EXPECT_EQ(near_cap.source, endhost::PathSource::kStaleCache);
  EXPECT_TRUE(near_cap.stale);
  EXPECT_EQ(capped.first_stale_at(), net.sim().now());

  net.sim().run_for(1 * kMillisecond);  // age == max_stale_age
  const auto at_cap = capped.paths_detailed(a::ovgu());
  EXPECT_EQ(at_cap.source, endhost::PathSource::kUnavailable);
  EXPECT_TRUE(at_cap.paths.empty());
  // The cap did not retroactively erase the stale-window evidence.
  EXPECT_EQ(capped.last_stale_at(), net.sim().now() - 1 * kMillisecond);
  // With the cap disabled the same entry still serves, however old.
  const auto still_stale = unbounded.paths_detailed(a::ovgu());
  EXPECT_EQ(still_stale.source, endhost::PathSource::kStaleCache);
  EXPECT_FALSE(still_stale.paths.empty());
}

// Replica failover: with the primary in an outage the daemon's sync
// lookup silently moves to replica 1 and still answers kFetched — no
// stale serving, no degradation. With every replica down and nothing
// cached for the destination, the ladder bottoms out at kUnavailable.
TEST(Daemon, FailsOverAcrossControlReplicas) {
  ScionNetwork::Options options;
  options.control_replicas = 3;
  ScionNetwork net{topology::build_sciera(), options};
  auto* set = net.control_service_set(a::uva());
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->size(), 3u);
  endhost::Daemon daemon{net, a::uva()};

  ChaosEngine engine{net, 5};
  FaultPlan plan;
  plan.name = "primary-out";
  plan.add({1 * kSecond, FaultKind::kControlOutage,
            a::uva().to_string() + "#r0", 0.0, 2 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  net.sim().run_for(1500 * kMillisecond);  // mid-outage
  EXPECT_FALSE(set->replica(0)->available());
  EXPECT_TRUE(set->replica(1)->available());
  const auto before = set->replica(1)->lookups_total();
  const auto lookup = daemon.paths_detailed(a::ovgu());
  EXPECT_EQ(lookup.source, endhost::PathSource::kFetched);
  EXPECT_FALSE(lookup.stale);
  EXPECT_FALSE(lookup.paths.empty());
  EXPECT_GT(set->replica(1)->lookups_total(), before);

  // Every replica dark + cold cache for this destination: kUnavailable.
  set->replica(1)->set_available(false);
  set->replica(2)->set_available(false);
  const auto exhausted = daemon.paths_detailed(a::kisti_sg());
  EXPECT_EQ(exhausted.source, endhost::PathSource::kUnavailable);
  EXPECT_GT(daemon.degraded_empty(), 0u);

  // The outage reverts on schedule and the primary serves again.
  net.sim().run_for(2 * kSecond);
  EXPECT_TRUE(set->replica(0)->available());
}

// The chaos replica-target grammar: "<as>#rK" must name an existing
// replica, "<as>#*" hits the whole set, and the legacy plain/"*" forms
// keep their pre-replication meaning (primary only), so existing plans
// leave the secondaries alive to absorb failover.
TEST(Chaos, ReplicaTargetsValidateAndApply) {
  ScionNetwork::Options options;
  options.control_replicas = 2;
  ScionNetwork net{topology::build_sciera(), options};
  ChaosEngine engine{net, 9};

  FaultPlan bad_index;
  bad_index.add({0, FaultKind::kControlOutage,
                 a::uva().to_string() + "#r5", 0.0, kSecond});
  EXPECT_FALSE(engine.arm(bad_index).ok());
  FaultPlan malformed;
  malformed.add({0, FaultKind::kControlOutage,
                 a::uva().to_string() + "#rx", 0.0, kSecond});
  EXPECT_FALSE(engine.arm(malformed).ok());

  FaultPlan plan;
  plan.name = "replica-scopes";
  plan.add({1 * kSecond, FaultKind::kControlOutage, "*", 0.0, 1 * kSecond});
  plan.add({3 * kSecond, FaultKind::kControlOutage,
            a::uva().to_string() + "#*", 0.0, 1 * kSecond});
  ASSERT_TRUE(engine.arm(plan).ok());

  net.sim().run_for(1500 * kMillisecond);  // wildcard window: primaries only
  auto* uva = net.control_service_set(a::uva());
  auto* geant = net.control_service_set(a::geant());
  EXPECT_FALSE(uva->replica(0)->available());
  EXPECT_TRUE(uva->replica(1)->available());
  EXPECT_FALSE(geant->replica(0)->available());
  EXPECT_TRUE(geant->replica(1)->available());

  net.sim().run_for(2 * kSecond);  // "#*" window: the whole UVa set
  EXPECT_FALSE(uva->replica(0)->available());
  EXPECT_FALSE(uva->replica(1)->available());
  EXPECT_TRUE(geant->replica(0)->available());

  net.sim().run_for(2 * kSecond);  // everything reverted
  EXPECT_TRUE(uva->replica(0)->available());
  EXPECT_TRUE(uva->replica(1)->available());
}

// The healing loop end to end against a real cut: segments over the dead
// circuit are revoked one detection delay after the transition, the
// reconvergence clock reads exactly that delay, and after the restore
// (plus one expiry horizon for any cut-era alternates beaconing learned)
// the store converges back to exactly the baseline segment set.
TEST(Chaos, HealingRevokesCutSegmentsAndRestoresThem) {
  ScionNetwork::Options options;
  options.healing.enabled = true;
  options.healing.refresh_interval = 1 * kSecond;
  options.healing.segment_lifetime = 2500 * kMillisecond;
  options.healing.detection_delay = 200 * kMillisecond;
  ScionNetwork net{topology::build_sciera(), options};
  const auto fingerprints = [&] {
    std::set<std::string> fps;
    for (const auto& segment : net.segments().all()) {
      fps.insert(segment.fingerprint());
    }
    return fps;
  };
  const std::set<std::string> baseline = fingerprints();
  const auto* info = net.topology().find_link_by_label("kreonet-sg-ams");
  ASSERT_NE(info, nullptr);
  const topology::LinkId cut_id = info->id;
  const auto over_cut_link = [&] {
    std::size_t n = 0;
    for (const auto& segment : net.segments().all()) {
      for (topology::LinkId id : segment.links) {
        if (id == cut_id) {
          ++n;
          break;
        }
      }
    }
    return n;
  };
  ASSERT_GT(over_cut_link(), 0u);

  net.sim().run_for(500 * kMillisecond);
  net.set_link_up("kreonet-sg-ams", false);
  net.sim().run_for(300 * kMillisecond);  // past the detection-delay sweep
  EXPECT_EQ(over_cut_link(), 0u);
  const auto cut_snap = net.healing_snapshot();
  EXPECT_GT(cut_snap.segments_revoked, 0u);
  EXPECT_EQ(cut_snap.last_reconverge, options.healing.detection_delay);

  // Restore at t=800ms; run past t=4s so periodic sweeps refresh the
  // re-originated baseline while anything learned only during the cut
  // window misses its refresh and expires (added at ~700ms + 2.5s life).
  net.set_link_up("kreonet-sg-ams", true);
  net.sim().run_for(3700 * kMillisecond);
  EXPECT_GT(over_cut_link(), 0u);
  EXPECT_EQ(fingerprints(), baseline);
  const auto restore_snap = net.healing_snapshot();
  EXPECT_GE(restore_snap.sweeps, 4u);
  EXPECT_GE(restore_snap.max_reconverge, options.healing.detection_delay);
}

// With healing disabled (the default) the stack is byte-for-byte the
// legacy one: beaconing stays one-shot, segments carry the "never
// expires" sentinel, a cut changes nothing in the store, and the healing
// snapshot reads all-zero/-1.
TEST(Chaos, HealingDisabledPreservesOneShotBeaconing) {
  ScionNetwork net{topology::build_sciera()};  // healing off by default
  const std::size_t baseline = net.segments().size();
  net.set_link_up("kreonet-sg-ams", false);
  net.sim().run_for(5 * kSecond);
  // No sweeps, no expiry, no revocation: the legacy one-shot store.
  EXPECT_EQ(net.segments().size(), baseline);
  const auto snap = net.healing_snapshot();
  EXPECT_EQ(snap.sweeps, 0u);
  EXPECT_EQ(snap.last_reconverge, -1);
  for (const auto& segment : net.segments().all()) {
    EXPECT_EQ(segment.expires_at, 0) << segment.fingerprint();
  }
  net.set_link_up("kreonet-sg-ams", true);
}

// The acceptance A/B: under the same KREONET ring cut and seed, the
// self-healing stack (replicated path services + healing loop) must beat
// the PR 4 resilient baseline on delivery ratio and report a finite,
// deterministic reconvergence time; the report stays byte-replayable.
TEST(Chaos, SelfHealingSoakBeatsResilientBaseline) {
  // The full default workload, same seed and window as the committed CLI
  // numbers: a slimmed-down matrix leaves the ring-cut wound without
  // enough lookups for healing to show up in the delivery ratio.
  SoakOptions base;
  base.seed = 7;
  base.duration = 4 * kSecond;
  SoakOptions healed = base;
  healed.self_healing = true;

  const auto resilient = run_soak(kreonet_ring_cut_plan(), base);
  const auto self_healed = run_soak(kreonet_ring_cut_plan(), healed);
  ASSERT_TRUE(resilient.ok());
  ASSERT_TRUE(self_healed.ok());

  EXPECT_GT(self_healed->delivery_ratio, resilient->delivery_ratio);
  EXPECT_TRUE(self_healed->self_healing);
  EXPECT_GT(self_healed->healing_sweeps, 0u);
  EXPECT_GT(self_healed->segments_revoked, 0u);
  EXPECT_GT(self_healed->time_to_reconverge, 0);
  EXPECT_GE(self_healed->max_reconverge, self_healed->time_to_reconverge);
  // Healing off preserves the legacy report shape: no sweeps, the -1
  // "never reconverged" sentinel, and stale serving doing the work.
  EXPECT_FALSE(resilient->self_healing);
  EXPECT_EQ(resilient->healing_sweeps, 0u);
  EXPECT_EQ(resilient->time_to_reconverge, -1);
  EXPECT_GT(resilient->stale_served, 0u);

  // Same options, same seed: byte-identical report, and it passes the
  // structural self-check the CLI applies to its own output.
  const auto replay = run_soak(kreonet_ring_cut_plan(), healed);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(self_healed->to_json(), replay->to_json());
  EXPECT_TRUE(validate_report_json(self_healed->to_json()));
  EXPECT_TRUE(validate_report_json(resilient->to_json()));
}

// Batched vs scalar border-router A/B under the full ring-cut soak:
// fault injection, SCMP error generation, breakers, stale serving — the
// batched fast path must be invisible to all of it. Not just the same
// delivery ratio: the entire survivability report, byte for byte.
TEST(Chaos, BatchedRouterReportMatchesScalar) {
  SoakOptions batched;
  batched.seed = 7;
  batched.duration = 2 * kSecond;
  SoakOptions scalar = batched;
  scalar.batched_router = false;

  const auto on_batched = run_soak(kreonet_ring_cut_plan(), batched);
  const auto on_scalar = run_soak(kreonet_ring_cut_plan(), scalar);
  ASSERT_TRUE(on_batched.ok());
  ASSERT_TRUE(on_scalar.ok());
  EXPECT_GT(on_batched->packets_delivered, 0u);
  EXPECT_GT(on_batched->faults_injected, 0u);
  EXPECT_EQ(on_batched->schedule_hash, on_scalar->schedule_hash);
  EXPECT_EQ(on_batched->executed_events, on_scalar->executed_events);
  EXPECT_EQ(on_batched->to_json(), on_scalar->to_json());
}

// Chaos-plan replay across the calendar queue's jump_to_far teleport:
// plan events parked seconds in the future live in the overflow heap and
// are reached by cursor teleports once the wheel drains. The executed
// schedule and the whole soak report must be byte-identical to the
// binary-heap referee's.
TEST(Chaos, SoakReplaysAcrossSchedulerTeleport) {
  FaultPlan plan = kreonet_ring_cut_plan();
  plan.name = "kreonet-ring-cut-far";
  // Far-future events: ~10s beyond the wheel's ~1.07s horizon, landing in
  // a stretch where the workload has gone quiet and the only periodic
  // traffic is the healing tick.
  plan.add({10 * kSecond, FaultKind::kLinkDown, "geant-bridges", 0.0,
            2 * kSecond});
  plan.add({12 * kSecond, FaultKind::kControlOutage, "*", 0.0, 1 * kSecond});

  SoakOptions calendar;
  calendar.seed = 13;
  calendar.duration = 14 * kSecond;
  calendar.self_healing = true;
  calendar.workload.hosts = 4;
  calendar.workload.flows = 8;
  calendar.workload.packets_per_flow = 20;
  SoakOptions heap = calendar;
  heap.scheduler.kind = simnet::SchedulerKind::kBinaryHeap;

  const auto on_calendar = run_soak(plan, calendar);
  const auto on_heap = run_soak(plan, heap);
  ASSERT_TRUE(on_calendar.ok());
  ASSERT_TRUE(on_heap.ok());
  EXPECT_GT(on_calendar->faults_injected, 2u);  // the far events fired
  EXPECT_EQ(on_calendar->schedule_hash, on_heap->schedule_hash);
  EXPECT_EQ(on_calendar->executed_events, on_heap->executed_events);
  EXPECT_EQ(on_calendar->to_json(), on_heap->to_json());
}

// --- Adversarial robustness (ISSUE 10) ---------------------------------------

// Attack events cannot arm against a bare engine: without an attack
// generator bridged in (soak.cc installs workload::AttackMatrix hooks),
// validation fails and nothing is scheduled.
TEST(Chaos, AttackEventsRequireArmedGenerator) {
  ScionNetwork net{topology::build_sciera()};
  ChaosEngine engine{net, 1};
  EXPECT_FALSE(engine.arm(forged_flood_plan()).ok());
  net.sim().run_for(5 * kSecond);
  EXPECT_EQ(engine.faults_injected(), 0u);
}

// Arm-time validation of attack bursts: unknown origin AS, degenerate
// rate, and a flash crowd without the shared sealing secret all fail
// before anything is scheduled.
TEST(Chaos, AttackBurstValidationRejectsBadEvents) {
  ScionNetwork net{topology::build_sciera()};
  workload::WorkloadConfig config = soak_default_workload();
  config.hosts = 4;
  config.flows = 4;
  config.packets_per_flow = 4;
  auto built =
      workload::TrafficMatrix::Builder{}.net(net).config(config).build();
  ASSERT_TRUE(built.ok());
  workload::TrafficMatrix& victims = **built;
  ASSERT_TRUE(victims.launch().ok());
  workload::AttackMatrix attack{net, victims, {}};

  workload::AttackBurst bad;
  bad.kind = workload::AttackKind::kForgedFlood;
  bad.source = IsdAs::parse("99-99").value();
  EXPECT_FALSE(attack.validate(bad).ok());
  bad.source = a::geant();
  bad.pps = 0;
  EXPECT_FALSE(attack.validate(bad).ok());
  bad.pps = 100;
  EXPECT_TRUE(attack.validate(bad).ok());

  workload::AttackBurst crowd;
  crowd.kind = workload::AttackKind::kFlashCrowd;
  crowd.source = a::geant();
  // The default AttackConfig carries no filter secret, so a flash crowd
  // (which must seal valid authenticators) cannot validate.
  EXPECT_FALSE(attack.validate(crowd).ok());
}

// A burst keeps one pending send however long it is: launching 10 s of a
// 10k pps forged flood (about 100k sends) adds exactly one event to the
// queue, and that event keeps the flood going.
TEST(Chaos, AttackBurstKeepsOnePendingSend) {
  ScionNetwork net{topology::build_sciera()};
  workload::WorkloadConfig config = soak_default_workload();
  config.hosts = 4;
  config.flows = 4;
  config.packets_per_flow = 4;
  auto built =
      workload::TrafficMatrix::Builder{}.net(net).config(config).build();
  ASSERT_TRUE(built.ok());
  workload::TrafficMatrix& victims = **built;
  ASSERT_TRUE(victims.launch().ok());
  workload::AttackMatrix attack{net, victims, {}};

  workload::AttackBurst flood;
  flood.kind = workload::AttackKind::kForgedFlood;
  flood.source = a::geant();
  flood.pps = 10'000;
  flood.duration = 10 * kSecond;
  const std::size_t before = net.sim().pending_events();
  ASSERT_TRUE(attack.launch(flood).ok());
  EXPECT_EQ(net.sim().pending_events(), before + 1);

  net.sim().run_for(kSecond);
  EXPECT_GT(attack.report().attack_sent, 9'000u);
  EXPECT_LT(attack.report().attack_sent, 11'000u);
}

// Router ingress admission: with a tiny data-class budget a data burst is
// shed at the first on-path router, while SCMP (the control class, left
// unlimited) keeps flowing — the priority inversion the flood would
// otherwise cause.
TEST(Router, AdmissionShedsDataButKeepsControl) {
  ScionNetwork::Options options;
  options.router.admission.data_pps = 10;
  options.router.admission.data_burst = 4;
  ScionNetwork net{topology::build_sciera(), options};
  const dataplane::Address src{a::uva(), 0x0A000001};
  int echoes = 0;
  ASSERT_TRUE(net.register_host(src,
                                [&](const dataplane::ScionPacket&, SimTime) {
                                  ++echoes;
                                })
                  .ok());
  const auto paths = net.paths(a::uva(), a::princeton());
  ASSERT_FALSE(paths.empty());
  for (int i = 0; i < 40; ++i) {
    dataplane::ScionPacket pkt;
    pkt.src = src;
    pkt.dst = {a::princeton(), 2};
    pkt.next_hdr = dataplane::kProtoUdp;
    pkt.path = paths.front().dataplane_path;
    pkt.payload = dataplane::UdpDatagram{40000, 40000, {0xA5}}.serialize();
    ASSERT_TRUE(net.send_from_host(pkt).ok());
  }
  for (int i = 0; i < 5; ++i) {
    dataplane::ScionPacket ping;
    ping.src = src;
    ping.dst = {a::princeton(), 2};
    ping.next_hdr = dataplane::kProtoScmp;
    ping.path = paths.front().dataplane_path;
    ping.payload =
        dataplane::make_echo_request(9, static_cast<std::uint16_t>(i))
            .serialize();
    ASSERT_TRUE(net.send_from_host(ping).ok());
  }
  net.sim().run_for(2 * kSecond);
  std::uint64_t data_drops = 0;
  std::uint64_t control_drops = 0;
  for (const topology::AsInfo& as : net.topology().ases()) {
    const auto stats = net.router(as.ia)->stats();
    data_drops += stats.admission_dropped_data;
    control_drops += stats.admission_dropped_control;
  }
  EXPECT_GT(data_drops, 0u);
  EXPECT_EQ(control_drops, 0u);
  EXPECT_EQ(echoes, 5);  // every echo survived the data shed
}

// Per-offender SCMP error budget: a source whose packets keep tripping
// ExternalInterfaceDown gets `burst` errors, then suppression — counted,
// and bounded regardless of the offered rate.
TEST(Router, ScmpErrorBudgetSuppressesPerOffender) {
  ScionNetwork::Options options;
  options.router.scmp_rate_pps = 1;
  options.router.scmp_burst = 2;
  ScionNetwork net{topology::build_sciera(), options};
  const auto paths = net.paths(a::uva(), a::princeton());
  ASSERT_FALSE(paths.empty());
  // Cut every UVa uplink so the origin router hits a down egress.
  for (const topology::LinkInfo& link : net.topology().links()) {
    if (link.a == a::uva() || link.b == a::uva()) {
      net.set_link_up(link.label, false);
    }
  }
  for (int i = 0; i < 6; ++i) {
    dataplane::ScionPacket pkt;
    pkt.src = {a::uva(), 0x0A000001};
    pkt.dst = {a::princeton(), 2};
    pkt.next_hdr = dataplane::kProtoUdp;
    pkt.path = paths.front().dataplane_path;
    pkt.payload = dataplane::UdpDatagram{40000, 40000, {0xA5}}.serialize();
    ASSERT_TRUE(net.send_from_host(pkt).ok());
  }
  net.sim().run_for(kSecond);
  const auto stats = net.router(a::uva())->stats();
  // scmp_errors_sent counts generation attempts; the budget (burst 2)
  // lets two through and suppresses the rest.
  EXPECT_EQ(stats.scmp_errors_sent, 6u);
  EXPECT_EQ(stats.scmp_suppressed, 4u);
}

// The headline A/B: under the forged-flood plan, the defended stack
// (in-path filters, admission classes, SCMP suppression) must strictly
// beat the undefended one on legitimate-traffic delivery — and no
// hostile packet may reach a socket.
TEST(Chaos, AttackSoakDefensesStrictlyBeatNoDefenses) {
  SoakOptions on;
  on.seed = 7;
  on.self_healing = true;
  // 5s covers the flood ramp (1s) plus the link flap (4s) whose
  // down-egress errors exercise SCMP suppression under flood.
  on.duration = 5 * kSecond;
  SoakOptions off = on;
  off.defenses = false;

  const auto defended = run_soak(forged_flood_plan(), on);
  const auto undefended = run_soak(forged_flood_plan(), off);
  ASSERT_TRUE(defended.ok());
  ASSERT_TRUE(undefended.ok());

  EXPECT_TRUE(defended->attack_plan);
  EXPECT_TRUE(defended->defenses);
  EXPECT_FALSE(undefended->defenses);
  EXPECT_GT(defended->attack_sent, 0u);
  EXPECT_EQ(defended->attack_delivered, 0u);
  EXPECT_GT(undefended->attack_delivered, 0u);
  EXPECT_GT(defended->legit_delivery_ratio,
            undefended->legit_delivery_ratio);
  // The defense layers each did real work.
  EXPECT_GT(defended->filter_dropped_auth, 0u);
  EXPECT_GT(defended->host_dropped_filtered, 0u);
  EXPECT_GT(defended->scmp_suppressed, 0u);
  // Undefended, the flood lands on the dispatcher's shared queue.
  EXPECT_GT(undefended->host_dropped_overload, 0u);
  EXPECT_LT(defended->host_dropped_overload,
            undefended->host_dropped_overload);
}

// Attack soaks replay byte-identically: the burst schedule, victim
// draws, and sealing are all functions of (plan, seed).
TEST(Chaos, AttackSoakReportIsDeterministic) {
  SoakOptions options;
  options.seed = 11;
  options.duration = 3 * kSecond;
  const auto first = run_soak(forged_flood_plan(), options);
  const auto second = run_soak(forged_flood_plan(), options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->attack_sent, 0u);
  EXPECT_EQ(first->schedule_hash, second->schedule_hash);
  EXPECT_EQ(first->executed_events, second->executed_events);
  EXPECT_EQ(first->to_json(), second->to_json());
}

// FNV-1a over a serialized report: one constant pins every byte of it.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// Golden digests of the serial schedule: `sciera_chaos <plan> --seed 7`
// at the CLI's 12 s default, as run_soak produces it. Each entry pins the
// executed event count, the ScheduleDigest hash and an FNV-1a digest of
// the report JSON (the CLI prints exactly to_json()), so any change to
// what the core executes or to what the report says about it moves one
// of them.
struct CorpusEntry {
  const char* name;
  FaultPlan plan;
  bool self_healing;
  bool batched_router;
  std::uint64_t executed_events;
  std::uint64_t schedule_hash;
  std::uint64_t report_hash;
  std::uint64_t seed = 7;
  Duration duration = SoakOptions{}.duration;
};

void expect_corpus(const std::vector<CorpusEntry>& corpus) {
  for (const CorpusEntry& entry : corpus) {
    SoakOptions options;
    options.seed = entry.seed;
    options.duration = entry.duration;
    options.self_healing = entry.self_healing;
    options.batched_router = entry.batched_router;
    const auto report = run_soak(entry.plan, options);
    ASSERT_TRUE(report.ok()) << entry.name;
    EXPECT_EQ(report->executed_events, entry.executed_events) << entry.name;
    EXPECT_EQ(report->schedule_hash, entry.schedule_hash) << entry.name;
    EXPECT_EQ(fnv1a(report->to_json()), entry.report_hash) << entry.name;
  }
}

TEST(Chaos, SoakDigestCorpus) {
  expect_corpus({
      {"kreonet-ring-cut", kreonet_ring_cut_plan(), false, true, 16976,
       0xe130b49f03bfc359ULL, 0x65089b955f2ab9ebULL},
      {"kreonet-ring-cut --self-healing", kreonet_ring_cut_plan(), true, true,
       17450, 0xdce6409542b9b17fULL, 0x150c9742247ff26dULL},
      {"forged-flood --self-healing", forged_flood_plan(), true, true, 222583,
       0x63cb9dd02722247dULL, 0xb14f11be89dcf0caULL},
  });
}

// The remaining named plans, and the ring cut under the scalar router
// (which must equal the batched entry above). A separate test so that
// `ctest -j` runs the two halves of the corpus side by side.
TEST(Chaos, SoakDigestCorpusNamedPlans) {
  expect_corpus({
      {"transatlantic-flap", transatlantic_flap_plan(), false, true, 26400,
       0x02b80ae88c31a184ULL, 0x892b9aad151b4693ULL},
      {"control-maintenance", control_maintenance_plan(), false, true, 24781,
       0xa3555b3b15cc6c0cULL, 0x600d0db1dbfa2319ULL},
      {"sg-ams-storm", sg_ams_storm_plan(), false, true, 26394,
       0xc426960fb3dbaa6dULL, 0xa7769bec028cd5d3ULL},
      {"mixed-mayhem", mixed_mayhem_plan(), false, true, 25104,
       0x5d70f0e8953f84b1ULL, 0x53f62892834bf8b3ULL},
      {"kreonet-ring-cut --scalar-router", kreonet_ring_cut_plan(), false,
       false, 16976, 0xe130b49f03bfc359ULL, 0x65089b955f2ab9ebULL},
  });
}

// Attack schedules without healing: the plain forged flood at the 12 s
// default, and the same plan at seed 11 cut at 3 s, while the forged and
// spoofed bursts still have sends pending and the flash crowd has just
// launched. A third test, so `ctest -j` runs it beside the other two.
TEST(Chaos, SoakDigestCorpusAttack) {
  expect_corpus({
      {"forged-flood", forged_flood_plan(), false, true, 222569,
       0x0ab731c29f3b945cULL, 0x9a337fc10bbae55eULL},
      {"forged-flood --seed 11 --duration-ms 3000", forged_flood_plan(),
       false, true, 62430, 0x607393382d49b315ULL, 0xca66deee8585b894ULL, 11,
       3 * kSecond},
  });
}

}  // namespace
}  // namespace sciera::chaos
