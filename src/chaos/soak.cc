#include "chaos/soak.h"

#include <algorithm>
#include <cstdio>

#include "topology/sciera_net.h"

namespace sciera::chaos {

namespace {

std::string fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string duration_ms(Duration d) {
  return fixed(static_cast<double>(d) / static_cast<double>(kMillisecond), 3);
}

Duration percentile(const std::vector<Duration>& sorted, int pct) {
  if (sorted.empty()) return 0;
  const std::size_t index = (sorted.size() - 1) * static_cast<std::size_t>(pct) / 100;
  return sorted[index];
}

// -1 is the "never happened" sentinel for reconvergence/stale times; it
// serializes as a bare -1 rather than a nonsense negative millisecond.
std::string duration_ms_or_none(Duration d) {
  return d < 0 ? std::string("-1") : duration_ms(d);
}

// Deployment filter secret, derived from the soak seed alone so two
// processes seal and verify with the same keys — a prerequisite for
// byte-identical attack reports.
Bytes soak_filter_secret(std::uint64_t seed) {
  Bytes secret;
  secret.reserve(16);
  for (int i = 0; i < 16; ++i) {
    secret.push_back(static_cast<std::uint8_t>(
        (seed >> (8 * (i % 8))) ^ static_cast<std::uint64_t>(0x5C + i)));
  }
  return secret;
}

// FaultEvent -> AttackBurst translation: target is the origin ISD-AS,
// magnitude the rate in packets/second, hold the burst duration.
Result<workload::AttackBurst> to_attack_burst(const FaultEvent& event) {
  workload::AttackBurst burst;
  switch (event.kind) {
    case FaultKind::kForgedFlood:
      burst.kind = workload::AttackKind::kForgedFlood;
      break;
    case FaultKind::kSpoofedFlood:
      burst.kind = workload::AttackKind::kSpoofedFlood;
      break;
    case FaultKind::kFlashCrowd:
      burst.kind = workload::AttackKind::kFlashCrowd;
      break;
    default:
      return Error{Errc::kInvalidArgument,
                   std::string(fault_kind_name(event.kind)) +
                       " is not an attack event"};
  }
  const auto ia = IsdAs::parse(event.target);
  if (!ia) {
    return Error{Errc::kInvalidArgument, "attack origin '" + event.target +
                                             "' is not an ISD-AS string"};
  }
  burst.source = *ia;
  burst.pps = event.magnitude;
  burst.duration = event.hold;
  return burst;
}

}  // namespace

workload::WorkloadConfig soak_default_workload() {
  workload::WorkloadConfig config;
  config.hosts = 12;
  config.flows = 40;
  config.packets_per_flow = 120;
  config.mean_interval = 60 * kMillisecond;
  config.start_window = 1 * kSecond;
  // Short TTL and penalty so an outage of a few seconds actually forces
  // the daemons through the degradation ladder mid-run.
  config.daemon.path_cache_ttl = 2 * kSecond;
  config.daemon.down_path_penalty = 3 * kSecond;
  return config;
}

Result<SurvivabilityReport> run_soak(const FaultPlan& plan,
                                     const SoakOptions& options) {
  // Zero stays valid: it builds and arms everything without running.
  if (options.duration < 0) {
    return Error{Errc::kInvalidArgument, "soak duration is negative"};
  }
  const bool attack_plan = plan_has_attack(plan);
  const bool defenses = attack_plan && options.defenses;
  const Bytes filter_secret = soak_filter_secret(options.seed);

  controlplane::ScionNetwork::Options net_options;
  net_options.seed = options.seed;
  net_options.router.batched = options.batched_router;
  if (defenses) {
    // Router overload control: a bounded data budget that engages when
    // the floods overlap (SCMP is never admission-limited), and a
    // per-offender SCMP error budget against amplification.
    net_options.router.admission.data_pps = 6000;
    net_options.router.admission.data_burst = 512;
    net_options.router.scmp_rate_pps = 200;
    net_options.router.scmp_burst = 8;
  }
  if (options.self_healing) {
    // Healing cadence tuned to the soak timescale: refresh every second,
    // segments live 2.5 sweeps, detection lag 200ms — a multi-second
    // ring cut is revoked within ~a sweep and restored links reappear
    // before the run ends.
    net_options.control_replicas = 3;
    net_options.healing.enabled = true;
    net_options.healing.refresh_interval = 1 * kSecond;
    net_options.healing.segment_lifetime = 2'500 * kMillisecond;
    net_options.healing.detection_delay = 200 * kMillisecond;
  }
  controlplane::ScionNetwork net(topology::build_sciera(), net_options);

  workload::WorkloadConfig workload_config = options.workload;
  workload_config.seed = options.seed;
  workload_config.daemon.resilience.enabled = options.resilience;
  if (attack_plan) {
    // Attack soaks run hosts on the legacy shared dispatcher (Section
    // 4.8): one finite queue per host that floods and legitimate traffic
    // contend for — the axis the in-path filter defends. Both arms of the
    // defense A/B seal payloads, so the offered traffic is identical and
    // only the defenses differ.
    workload_config.stack.mode = endhost::HostMode::kDispatcher;
    workload_config.stack.dispatcher_pps = 600;
    workload_config.stack.dispatcher_queue = 24;
    workload_config.seal_payloads = true;
    workload_config.filter_secret = filter_secret;
    workload_config.install_filters = defenses;
    workload_config.filter.require_auth = true;
    workload_config.filter.rate_pps = 500;
    workload_config.filter.burst = 64;
    // Small per-source table so the spoofed-source flood actually hits
    // the overflow path instead of growing state without bound.
    workload_config.filter.max_sources = 64;
    workload_config.filter.idle_timeout = 2 * kSecond;
  }
  auto built = workload::TrafficMatrix::Builder{}
                   .net(net)
                   .config(workload_config)
                   .build();
  if (!built) return built.error();
  workload::TrafficMatrix& workload = **built;

  // Delivery times network-wide, in delivery order — which is time order,
  // since events execute in time order.
  std::vector<SimTime> delivery_times;
  workload.set_on_delivery(
      [&delivery_times](const dataplane::Address&, std::size_t, SimTime at) {
        delivery_times.push_back(at);
      });
  std::unique_ptr<workload::AttackMatrix> attack;
  if (attack_plan) {
    workload::AttackConfig attack_config;
    attack_config.seed = options.seed;
    attack_config.payload_bytes = workload_config.payload_bytes;
    attack_config.filter_secret = filter_secret;
    attack = std::make_unique<workload::AttackMatrix>(net, workload,
                                                      attack_config);
    workload.set_on_foreign_delivery(
        [&attack = *attack](std::uint8_t marker, std::size_t, SimTime) {
          attack.note_delivery(marker);
        });
  }
  if (auto status = workload.launch(); !status.ok()) return status.error();

  ChaosEngine engine(net, options.seed);
  if (attack) {
    engine.set_attack_hooks(
        {[&attack = *attack](const FaultEvent& event) -> Status {
           auto burst = to_attack_burst(event);
           if (!burst) return burst.error();
           return attack.validate(*burst);
         },
         [&attack = *attack](const FaultEvent& event) -> Status {
           auto burst = to_attack_burst(event);
           if (!burst) return burst.error();
           return attack.launch(*burst);
         }});
  }
  if (auto status = engine.arm(plan); !status.ok()) return status.error();

  net.sim().run_for(options.duration);

  SurvivabilityReport report;
  report.plan = plan.name;
  report.seed = options.seed;
  report.resilience = options.resilience;
  report.duration = options.duration;
  const workload::WorkloadReport wr = workload.report();
  report.packets_sent = wr.packets_sent;
  report.packets_delivered = wr.packets_delivered;
  report.send_failures = wr.send_failures;
  report.failover_sends = wr.failover_sends;
  const std::uint64_t attempts = wr.packets_sent + wr.send_failures;
  report.delivery_ratio =
      attempts == 0 ? 0.0
                    : static_cast<double>(wr.packets_delivered) /
                          static_cast<double>(attempts);

  // Delivery-gap distribution: consecutive differences of the delivery
  // times are the network-wide delivery gaps.
  std::vector<Duration> gaps;
  gaps.reserve(delivery_times.empty() ? 0 : delivery_times.size() - 1);
  for (std::size_t i = 1; i < delivery_times.size(); ++i) {
    gaps.push_back(delivery_times[i] - delivery_times[i - 1]);
  }
  std::sort(gaps.begin(), gaps.end());
  report.gap_p50 = percentile(gaps, 50);
  report.gap_p90 = percentile(gaps, 90);
  report.gap_p99 = percentile(gaps, 99);
  report.gap_max = gaps.empty() ? 0 : gaps.back();

  for (std::size_t i = 0; i < workload.host_count(); ++i) {
    const endhost::Daemon::Metrics& daemon = workload.daemon(i).metrics();
    report.lookups += daemon.lookups->value();
    report.stale_served += daemon.stale_served->value();
    report.degraded_empty += daemon.degraded_empty->value();
    report.breaker_trips += daemon.breaker_trips->value();
  }
  for (const topology::AsInfo& as : net.topology().ases()) {
    controlplane::ControlServiceSet& services = *net.control_service_set(as.ia);
    for (std::size_t k = 0; k < services.size(); ++k) {
      report.control_lookups_dropped +=
          services.replica(k)->metrics().lookups_dropped->value();
    }
  }

  report.self_healing = options.self_healing;
  const controlplane::HealingSnapshot healing = net.healing_snapshot();
  report.healing_sweeps = healing.sweeps;
  report.segments_expired = healing.segments_expired;
  report.segments_revoked = healing.segments_revoked;
  report.time_to_reconverge = healing.last_reconverge;
  report.max_reconverge = healing.max_reconverge;
  for (std::size_t i = 0; i < workload.host_count(); ++i) {
    const endhost::Daemon& daemon = workload.daemon(i);
    if (daemon.first_stale_at() >= 0 &&
        (report.stale_first < 0 || daemon.first_stale_at() < report.stale_first)) {
      report.stale_first = daemon.first_stale_at();
    }
    if (daemon.last_stale_at() > report.stale_last) {
      report.stale_last = daemon.last_stale_at();
    }
  }

  report.attack_plan = attack_plan;
  report.defenses = defenses;
  report.legit_delivery_ratio = report.delivery_ratio;
  if (attack) {
    const workload::AttackReport ar = attack->report();
    report.attack_sent = ar.attack_sent;
    report.attack_delivered = ar.attack_delivered;
    report.surge_sent = ar.surge_sent;
    report.surge_delivered = ar.surge_delivered;
    report.attack_send_failures = ar.send_failures;
    for (std::size_t i = 0; i < workload.host_count(); ++i) {
      if (const endhost::LightningFilter* filter = workload.filter(i)) {
        const endhost::LightningFilter::Metrics& verdicts = filter->metrics();
        report.filter_accepted += verdicts.accepted->value();
        report.filter_dropped_rule += verdicts.dropped_rule->value();
        report.filter_dropped_auth += verdicts.dropped_auth->value();
        report.filter_dropped_rate += verdicts.dropped_rate->value();
        report.filter_dropped_overflow += verdicts.dropped_overflow->value();
      }
      const endhost::HostStack::Metrics& stack = workload.stack(i).metrics();
      report.host_dropped_filtered += stack.dropped_filtered->value();
      report.host_dropped_overload += stack.dropped_overload->value();
    }
    for (const topology::AsInfo& as : net.topology().ases()) {
      const dataplane::BorderRouter::Metrics& router =
          net.router(as.ia)->metrics();
      report.admission_dropped_data += router.admission_dropped_data->value();
      report.admission_dropped_control +=
          router.admission_dropped_control->value();
      report.scmp_suppressed += router.scmp_suppressed->value();
    }
    report.reconverge_under_flood = report.time_to_reconverge;
  }

  report.faults_injected = engine.faults_injected();
  report.executed_events = net.sim().executed_events();
  report.schedule_hash = net.sim().schedule_hash();
  return report;
}

std::string SurvivabilityReport::to_json() const {
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof hash_hex, "0x%016llx",
                static_cast<unsigned long long>(schedule_hash));
  std::string json;
  json += "{\n";
  json += "  \"schema\": \"sciera.chaos.soak.v1\",\n";
  json += "  \"plan\": \"" + plan + "\",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += std::string("  \"resilience\": ") +
          (resilience ? "true" : "false") + ",\n";
  json += "  \"duration_ms\": " + duration_ms(duration) + ",\n";
  json += "  \"delivery\": {\n";
  json += "    \"sent\": " + std::to_string(packets_sent) + ",\n";
  json += "    \"delivered\": " + std::to_string(packets_delivered) + ",\n";
  json += "    \"send_failures\": " + std::to_string(send_failures) + ",\n";
  json += "    \"failover_sends\": " + std::to_string(failover_sends) + ",\n";
  json += "    \"ratio\": " + fixed(delivery_ratio, 6) + "\n";
  json += "  },\n";
  json += "  \"delivery_gaps_ms\": {\n";
  json += "    \"p50\": " + duration_ms(gap_p50) + ",\n";
  json += "    \"p90\": " + duration_ms(gap_p90) + ",\n";
  json += "    \"p99\": " + duration_ms(gap_p99) + ",\n";
  json += "    \"max\": " + duration_ms(gap_max) + "\n";
  json += "  },\n";
  json += "  \"lookup_error_budget\": {\n";
  json += "    \"lookups\": " + std::to_string(lookups) + ",\n";
  json += "    \"stale_served\": " + std::to_string(stale_served) + ",\n";
  json += "    \"degraded_empty\": " + std::to_string(degraded_empty) + ",\n";
  json += "    \"breaker_trips\": " + std::to_string(breaker_trips) + ",\n";
  json += "    \"control_dropped\": " +
          std::to_string(control_lookups_dropped) + "\n";
  json += "  },\n";
  json += "  \"self_healing\": {\n";
  json += std::string("    \"enabled\": ") +
          (self_healing ? "true" : "false") + ",\n";
  json += "    \"sweeps\": " + std::to_string(healing_sweeps) + ",\n";
  json += "    \"segments_expired\": " + std::to_string(segments_expired) +
          ",\n";
  json += "    \"segments_revoked\": " + std::to_string(segments_revoked) +
          ",\n";
  json += "    \"time_to_reconverge_ms\": " +
          duration_ms_or_none(time_to_reconverge) + ",\n";
  json += "    \"max_reconverge_ms\": " + duration_ms_or_none(max_reconverge) +
          ",\n";
  json += "    \"stale_window_ms\": {\n";
  json += "      \"first\": " + duration_ms_or_none(stale_first) + ",\n";
  json += "      \"last\": " + duration_ms_or_none(stale_last) + ",\n";
  json += "      \"width\": " +
          duration_ms_or_none(
              stale_first < 0 ? -1 : stale_last - stale_first) + "\n";
  json += "    }\n";
  json += "  },\n";
  json += "  \"attack\": {\n";
  json += std::string("    \"attack_plan\": ") +
          (attack_plan ? "true" : "false") + ",\n";
  json += std::string("    \"defenses\": ") + (defenses ? "true" : "false") +
          ",\n";
  json += "    \"attack_sent\": " + std::to_string(attack_sent) + ",\n";
  json += "    \"attack_delivered\": " + std::to_string(attack_delivered) +
          ",\n";
  json += "    \"surge_sent\": " + std::to_string(surge_sent) + ",\n";
  json += "    \"surge_delivered\": " + std::to_string(surge_delivered) +
          ",\n";
  json += "    \"attack_send_failures\": " +
          std::to_string(attack_send_failures) + ",\n";
  json += "    \"legit_ratio\": " + fixed(legit_delivery_ratio, 6) + ",\n";
  json += "    \"filter_verdicts\": {\n";
  json += "      \"accepted\": " + std::to_string(filter_accepted) + ",\n";
  json += "      \"rule\": " + std::to_string(filter_dropped_rule) + ",\n";
  json += "      \"auth\": " + std::to_string(filter_dropped_auth) + ",\n";
  json += "      \"rate\": " + std::to_string(filter_dropped_rate) + ",\n";
  json += "      \"overflow\": " + std::to_string(filter_dropped_overflow) +
          "\n";
  json += "    },\n";
  json += "    \"host_drops\": {\n";
  json += "      \"filtered\": " + std::to_string(host_dropped_filtered) +
          ",\n";
  json += "      \"overload\": " + std::to_string(host_dropped_overload) +
          "\n";
  json += "    },\n";
  json += "    \"router_admission_drops\": {\n";
  json += "      \"data\": " + std::to_string(admission_dropped_data) + ",\n";
  json += "      \"control\": " + std::to_string(admission_dropped_control) +
          "\n";
  json += "    },\n";
  json += "    \"scmp_suppressed\": " + std::to_string(scmp_suppressed) +
          ",\n";
  json += "    \"reconverge_under_flood_ms\": " +
          duration_ms_or_none(reconverge_under_flood) + "\n";
  json += "  },\n";
  json += "  \"faults_injected\": " + std::to_string(faults_injected) + ",\n";
  json += "  \"determinism\": {\n";
  json += "    \"executed_events\": " + std::to_string(executed_events) +
          ",\n";
  json += std::string("    \"schedule_hash\": \"") + hash_hex + "\"\n";
  json += "  }\n";
  json += "}\n";
  return json;
}

bool validate_report_json(const std::string& json) {
  // Structural check, not a JSON parser: the serializer above is the only
  // producer, so key presence is a faithful schema probe.
  static constexpr const char* kRequired[] = {
      "\"schema\": \"sciera.chaos.soak.v1\"",
      "\"plan\":",
      "\"seed\":",
      "\"resilience\":",
      "\"duration_ms\":",
      "\"delivery\":",
      "\"delivered\":",
      "\"ratio\":",
      "\"delivery_gaps_ms\":",
      "\"lookup_error_budget\":",
      "\"self_healing\":",
      "\"time_to_reconverge_ms\":",
      "\"stale_window_ms\":",
      "\"attack\":",
      "\"legit_ratio\":",
      "\"filter_verdicts\":",
      "\"host_drops\":",
      "\"router_admission_drops\":",
      "\"scmp_suppressed\":",
      "\"reconverge_under_flood_ms\":",
      "\"faults_injected\":",
      "\"determinism\":",
      "\"schedule_hash\":",
  };
  for (const char* key : kRequired) {
    if (json.find(key) == std::string::npos) return false;
  }
  return true;
}

}  // namespace sciera::chaos
