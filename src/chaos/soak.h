// Soak harness: runs the full SCIERA topology under a fault plan with a
// deterministic many-flow workload and distills the run into a
// SurvivabilityReport — delivery ratio, delivery-gap (failover latency)
// distribution, the daemons' lookup error budget, and the executed
// ScheduleDigest. The report's JSON is derived exclusively from
// simulation state, so two same-seed runs serialize byte-identically
// (the chaos.soak_smoke ctest gate compares across processes).
#pragma once

#include "chaos/chaos_engine.h"
#include "workload/attack.h"
#include "workload/workload.h"

namespace sciera::chaos {

// Workload tuned for soak runs: short daemon TTL and quarantine penalty
// so faults bite mid-run, flows spread across the whole run window.
[[nodiscard]] workload::WorkloadConfig soak_default_workload();

struct SoakOptions {
  std::uint64_t seed = 0x5C1E2A;
  Duration duration = 12 * kSecond;
  // Resilience A/B switch; overrides workload.daemon.resilience.enabled.
  bool resilience = true;
  // Self-healing A/B switch: enables the control plane's healing loop
  // (timer-driven re-beaconing, segment expiry, link-state triggered
  // sweeps) and 3 path-service replicas per AS. Off preserves the PR 4
  // stack: one service, stale paths forever, no reconvergence.
  bool self_healing = false;
  // Scheduler backend for the network simulator (calendar queue by
  // default; the jump_to_far replay test A/Bs against the binary heap).
  simnet::SchedulerConfig scheduler{};
  // Border-router fast path A/B: batched (default) vs scalar frame
  // processing. Reports must be byte-identical either way — the chaos
  // suite gates on it.
  bool batched_router = true;
  // Defenses A/B switch for attack plans: in-path LightningFilters on
  // every host, router data admission, and per-offender SCMP
  // suppression. Only consulted when the plan carries adversarial events
  // (plan_has_attack) — legacy plans never stand up attack machinery, so
  // their schedules stay byte-identical to previous releases.
  bool defenses = true;
  workload::WorkloadConfig workload = soak_default_workload();
};

struct SurvivabilityReport {  // registry-backed snapshot
  std::string plan;
  std::uint64_t seed = 0;
  bool resilience = true;
  Duration duration = 0;
  // Delivery.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t failover_sends = 0;
  // delivered / (sent + send_failures): failed sends count against it.
  double delivery_ratio = 0.0;
  // Gaps between consecutive deliveries network-wide — the failover
  // latency signal: a long gap is time the fleet delivered nothing.
  Duration gap_p50 = 0;
  Duration gap_p90 = 0;
  Duration gap_p99 = 0;
  Duration gap_max = 0;
  // Lookup error budget, aggregated over every host daemon.
  std::uint64_t lookups = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t degraded_empty = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t control_lookups_dropped = 0;
  // Self-healing section: reconvergence and stale-window evidence. All
  // durations/timestamps are -1 when the event never happened (e.g.
  // healing disabled, or no link-state change during the run).
  bool self_healing = false;
  std::uint64_t healing_sweeps = 0;
  std::uint64_t segments_expired = 0;
  std::uint64_t segments_revoked = 0;
  // Last and worst measured link-change -> sweep-complete latency.
  Duration time_to_reconverge = -1;
  Duration max_reconverge = -1;
  // Fleet-wide stale-serving window: earliest first and latest last
  // stale answer across all daemons.
  SimTime stale_first = -1;
  SimTime stale_last = -1;

  // Attack section — all zeros/sentinels when the plan carries no
  // adversarial events, so the schema is stable across plan families.
  bool attack_plan = false;
  bool defenses = false;
  std::uint64_t attack_sent = 0;
  std::uint64_t attack_delivered = 0;  // hostile packets reaching a socket
  std::uint64_t surge_sent = 0;
  std::uint64_t surge_delivered = 0;
  std::uint64_t attack_send_failures = 0;
  // Legitimate-traffic delivery ratio (== delivery_ratio; hostile traffic
  // never counts toward delivery) — the defenses-on > defenses-off gate.
  double legit_delivery_ratio = 0.0;
  // In-path filter verdicts aggregated over every installed filter.
  std::uint64_t filter_accepted = 0;
  std::uint64_t filter_dropped_rule = 0;
  std::uint64_t filter_dropped_auth = 0;
  std::uint64_t filter_dropped_rate = 0;
  std::uint64_t filter_dropped_overflow = 0;
  // Host-stack drops: in-path filter shed vs dispatcher-queue overload.
  std::uint64_t host_dropped_filtered = 0;
  std::uint64_t host_dropped_overload = 0;
  // Router overload control, aggregated fleet-wide.
  std::uint64_t admission_dropped_data = 0;
  std::uint64_t admission_dropped_control = 0;
  std::uint64_t scmp_suppressed = 0;
  // Reconvergence achieved while the flood raged (-1 = never / healing
  // off / not an attack plan).
  Duration reconverge_under_flood = -1;

  // Chaos + determinism evidence.
  std::uint64_t faults_injected = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t schedule_hash = 0;

  // Deterministic single-line-per-field JSON (schema
  // "sciera.chaos.soak.v1").
  [[nodiscard]] std::string to_json() const;
};

// Structural self-check of a serialized report: schema tag plus every
// required section present. The CLI runs it on its own output and exits
// nonzero on failure, so a report regression cannot ship silently.
[[nodiscard]] bool validate_report_json(const std::string& json);

// Builds the SCIERA network, launches the workload, arms the plan, runs
// for options.duration, and summarizes. A negative duration is
// kInvalidArgument; zero builds and arms everything but runs nothing.
[[nodiscard]] Result<SurvivabilityReport> run_soak(const FaultPlan& plan,
                                                   const SoakOptions& options);

}  // namespace sciera::chaos
