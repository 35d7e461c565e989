// Fault plans: declarative, replayable incident schedules for the SCIERA
// network. A plan is a list of timestamped fault events (link flaps,
// correlated regional outages, control-service outages, router crashes,
// loss/jitter storms, attack bursts) plus an optional randomized flap
// campaign drawn from a seeded Rng. The ChaosEngine turns a plan into
// simulator events, so two runs with the same plan and seed replay
// byte-for-byte under simnet::audit_determinism().
//
// The named plans model the paper's real incidents: the KREONET
// northern-hemisphere ring cut (Section 4.7.1), transatlantic circuit
// flaps, and control-service maintenance windows.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"

namespace sciera::chaos {

enum class FaultKind : std::uint8_t {
  // Link admin-state faults; target is a topology link label.
  kLinkDown,     // hold > 0 re-ups the link after `hold`
  kLinkUp,
  kLinkFlap,     // down, then up after `hold`
  // Correlated outage: every link incident to the target AS (ISD-AS
  // string) or PoP city goes down together, re-upping after `hold`.
  kRegionOutage,
  // Control-service faults; target is an ISD-AS string or "*" for every
  // AS. An outage takes out an AS's primary replica only, so secondaries
  // (ScionNetwork::Options::control_replicas) absorb the failover.
  kControlOutage,  // lookups fail fast for `hold`
  // Border-router crash with state loss; restarts after `hold` (a hold of
  // 0 leaves it down for the rest of the run).
  kRouterCrash,
  // Transient impairment storms on a link; magnitude is the loss
  // probability / jitter sigma, reverted to the link's previous value
  // after `hold`.
  kLossStorm,
  kJitterStorm,
  // Adversarial traffic bursts, executed by an armed attack generator
  // (workload::AttackMatrix via ChaosEngine::set_attack_hooks). Target is
  // the origin ISD-AS string, magnitude the send rate in packets/second,
  // hold the burst duration. No reversion: the burst ends on its own.
  kForgedFlood,   // compromised AS floods with forged authenticators
  kSpoofedFlood,  // flood fabricating a fresh source AS per packet
  kFlashCrowd,    // legitimate surge with valid authenticators
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kLinkFlap;
  std::string target;      // link label, ISD-AS string, city, or "*"
  double magnitude = 0.0;  // loss probability / jitter sigma / attack pps
  Duration hold = 0;       // time until the fault auto-reverts (0 = never)
};

// Randomized flap campaign layered on top of the scripted events: `flaps`
// link flaps at times uniform in [start, start + window), each holding
// down for uniform [min_hold, max_hold), targets drawn uniformly over the
// topology's links. All draws come from the engine's seeded Rng.
struct RandomCampaign {
  std::size_t flaps = 0;
  SimTime start = 0;
  Duration window = 10 * kSecond;
  Duration min_hold = 50 * kMillisecond;
  Duration max_hold = 500 * kMillisecond;
};

struct FaultPlan {
  std::string name;
  std::vector<FaultEvent> events;
  RandomCampaign random{};

  FaultPlan& add(FaultEvent event) {
    events.push_back(std::move(event));
    return *this;
  }
};

// --- Named plans (the soak CLI's menu) -------------------------------------

// Section 4.7.1's headline incident, sharpened: the whole KREONET
// northern-hemisphere ring goes dark for several seconds while the KISTI
// control services are in a maintenance outage, so path failover has to
// ride cached state.
[[nodiscard]] FaultPlan kreonet_ring_cut_plan();
// Repeated flapping of the transatlantic core circuits.
[[nodiscard]] FaultPlan transatlantic_flap_plan();
// Global control-service maintenance: every primary CS down for 5 s,
// with a border router crashing mid-window.
[[nodiscard]] FaultPlan control_maintenance_plan();
// Loss and jitter storms on the Singapore-Amsterdam channel bundle.
[[nodiscard]] FaultPlan sg_ams_storm_plan();
// Everything at once, plus a randomized flap campaign.
[[nodiscard]] FaultPlan mixed_mayhem_plan();
// The hostile-traffic incident (Sections 4.7.1, 4.9): a forged-MAC flood
// from a compromised AS, a spoofed-source flood fabricating origin ASes,
// a legitimate flash crowd riding on top, and a mid-flood link cut so
// reconvergence has to happen while the network is saturated. Requires an
// armed attack generator (soak defenses wiring / AttackMatrix).
[[nodiscard]] FaultPlan forged_flood_plan();

// True when the plan contains any adversarial traffic event (the soak
// only stands up attack generators and defenses for such plans, keeping
// every legacy plan's schedule byte-identical).
[[nodiscard]] bool plan_has_attack(const FaultPlan& plan);

[[nodiscard]] std::vector<std::string> plan_names();
[[nodiscard]] Result<FaultPlan> plan_by_name(const std::string& name);

}  // namespace sciera::chaos
