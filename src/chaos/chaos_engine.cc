#include "chaos/chaos_engine.h"

#include "obs/flight_recorder.h"
#include "simnet/link.h"

namespace sciera::chaos {

namespace {
constexpr std::array<FaultKind, 11> kAllKinds = {
    FaultKind::kLinkDown,      FaultKind::kLinkUp,
    FaultKind::kLinkFlap,      FaultKind::kRegionOutage,
    FaultKind::kControlOutage, FaultKind::kRouterCrash,
    FaultKind::kLossStorm,     FaultKind::kJitterStorm,
    FaultKind::kForgedFlood,   FaultKind::kSpoofedFlood,
    FaultKind::kFlashCrowd,
};

// Control-fault targets address replicas with an optional '#' suffix:
// "<as>" / "*"  -> primary replica only (the legacy single-service
//                  semantics — plans written before replication behave
//                  identically, and replicas 1..N-1 stay up to absorb
//                  failover traffic);
// "<as>#rK"     -> replica K of that AS;
// "<as>#*"      -> every replica of the set.
void split_replica_target(const std::string& target, std::string& base,
                          std::string& suffix) {
  const auto pos = target.find('#');
  if (pos == std::string::npos) {
    base = target;
    suffix.clear();
    return;
  }
  base = target.substr(0, pos);
  suffix = target.substr(pos + 1);
}

// Parses "rK" into K. Returns false on anything else.
bool parse_replica_index(const std::string& suffix, std::size_t& index) {
  if (suffix.size() < 2 || suffix[0] != 'r') return false;
  std::size_t value = 0;
  for (std::size_t i = 1; i < suffix.size(); ++i) {
    const char c = suffix[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  index = value;
  return true;
}
}  // namespace

ChaosEngine::ChaosEngine(controlplane::ScionNetwork& net, std::uint64_t seed)
    : net_(net),
      rng_(seed, "chaos-engine"),
      trace_subject_(obs::FlightRecorder::global().intern("chaos")) {
  auto& registry = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kAllKinds.size(); ++i) {
    injected_by_kind_[i] = &registry.counter(
        "sciera_chaos_injected_total",
        obs::Labels{{"kind", fault_kind_name(kAllKinds[i])}});
  }
}

std::vector<std::string> ChaosEngine::region_link_labels(
    const std::string& target) const {
  const auto ia = IsdAs::parse(target);
  std::vector<std::string> labels;
  for (const topology::LinkInfo& link : net_.topology().links()) {
    const bool match =
        ia ? (link.a == *ia || link.b == *ia)
           : (net_.topology().find_as(link.a)->city == target ||
              net_.topology().find_as(link.b)->city == target);
    if (match) labels.push_back(link.label);
  }
  return labels;
}

std::vector<controlplane::ControlService*> ChaosEngine::services_for(
    const std::string& target) {
  std::string base;
  std::string suffix;
  split_replica_target(target, base, suffix);

  std::vector<controlplane::ControlServiceSet*> sets;
  if (base == "*") {
    for (const topology::AsInfo& as : net_.topology().ases()) {
      sets.push_back(net_.control_service_set(as.ia));
    }
  } else {
    const auto ia = IsdAs::parse(base);
    if (ia && net_.topology().find_as(*ia) != nullptr) {
      sets.push_back(net_.control_service_set(*ia));
    }
  }

  std::vector<controlplane::ControlService*> services;
  for (auto* set : sets) {
    if (suffix.empty()) {
      services.push_back(set->primary());
    } else if (suffix == "*") {
      for (std::size_t k = 0; k < set->size(); ++k) {
        services.push_back(set->replica(k));
      }
    } else if (std::size_t k = 0; parse_replica_index(suffix, k)) {
      // Out-of-range indices were rejected at validate(); a replica that
      // nevertheless is not there just matches nothing.
      if (auto* replica = set->replica(k)) services.push_back(replica);
    }
  }
  return services;
}

Status ChaosEngine::validate(const FaultEvent& event) {
  const auto bad = [&](const char* what) {
    return Error{Errc::kNotFound,
                 std::string(fault_kind_name(event.kind)) + ": " + what +
                     " '" + event.target + "' not found"};
  };
  switch (event.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLinkFlap:
    case FaultKind::kLossStorm:
    case FaultKind::kJitterStorm:
      if (net_.topology().find_link_by_label(event.target) == nullptr) {
        return bad("link");
      }
      return {};
    case FaultKind::kRegionOutage:
      if (region_link_labels(event.target).empty()) return bad("region");
      return {};
    case FaultKind::kControlOutage: {
      std::string base;
      std::string suffix;
      split_replica_target(event.target, base, suffix);
      if (base != "*") {
        const auto ia = IsdAs::parse(base);
        if (!ia || net_.topology().find_as(*ia) == nullptr) {
          return bad("control service AS");
        }
      }
      if (!suffix.empty() && suffix != "*") {
        std::size_t index = 0;
        const std::size_t replicas =
            net_.options().control_replicas < 1
                ? 1
                : net_.options().control_replicas;
        if (!parse_replica_index(suffix, index) || index >= replicas) {
          return bad("control service replica");
        }
      }
      return {};
    }
    case FaultKind::kRouterCrash: {
      const auto ia = IsdAs::parse(event.target);
      if (!ia || net_.topology().find_as(*ia) == nullptr) return bad("router");
      return {};
    }
    case FaultKind::kForgedFlood:
    case FaultKind::kSpoofedFlood:
    case FaultKind::kFlashCrowd:
      if (!attack_hooks_.validate || !attack_hooks_.launch) {
        return Error{Errc::kInvalidArgument,
                     std::string(fault_kind_name(event.kind)) +
                         ": attack event requires an armed attack generator "
                         "(set_attack_hooks)"};
      }
      return attack_hooks_.validate(event);
  }
  return Error{Errc::kInvalidArgument, "unknown fault kind"};
}

Status ChaosEngine::arm(const FaultPlan& plan) {
  sim_thread_role.assert_held();
  for (const FaultEvent& event : plan.events) {
    if (auto status = validate(event); !status.ok()) return status;
  }
  for (const FaultEvent& event : plan.events) schedule(event);
  // Randomized campaign: every draw happens here, at arm time, so the
  // schedule is fixed by (plan, seed) alone.
  const auto& links = net_.topology().links();
  for (std::size_t i = 0; i < plan.random.flaps; ++i) {
    FaultEvent flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.target = links[rng_.next_below(links.size())].label;
    flap.at = plan.random.start +
              static_cast<Duration>(rng_.uniform(
                  0.0, static_cast<double>(plan.random.window)));
    flap.hold = static_cast<Duration>(
        rng_.uniform(static_cast<double>(plan.random.min_hold),
                     static_cast<double>(plan.random.max_hold)));
    schedule(flap);
  }
  return {};
}

void ChaosEngine::schedule(const FaultEvent& event) {
  net_.sim().schedule(event.at, [this, event] { apply(event); });
}

void ChaosEngine::note(const FaultEvent& event, const char* action) {
  note_text_.assign(action);
  note_text_ += ' ';
  note_text_ += fault_kind_name(event.kind);
  note_text_ += ' ';
  note_text_ += event.target;
  auto& recorder = obs::FlightRecorder::global();
  recorder.record(obs::TraceType::kChaosInject, net_.sim().now(),
                  net_.sim().executed_events(), trace_subject_,
                  obs::TraceDetail::kText, recorder.intern(note_text_));
}

void ChaosEngine::apply(const FaultEvent& event) {
  sim_thread_role.assert_held();
  ++injected_;
  for (std::size_t i = 0; i < kAllKinds.size(); ++i) {
    if (kAllKinds[i] == event.kind) injected_by_kind_[i]->inc();
  }
  note(event, "apply");
  const bool reverts = event.hold > 0;
  switch (event.kind) {
    case FaultKind::kLinkUp:
      net_.set_link_up(event.target, true);
      return;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkFlap:
      net_.set_link_up(event.target, false);
      break;
    case FaultKind::kRegionOutage:
      for (const std::string& label : region_link_labels(event.target)) {
        net_.set_link_up(label, false);
      }
      break;
    case FaultKind::kControlOutage:
      for (auto* service : services_for(event.target)) {
        service->set_available(false);
      }
      break;
    case FaultKind::kRouterCrash: {
      if (auto* router = net_.router(*IsdAs::parse(event.target))) {
        router->crash();
      }
      break;
    }
    case FaultKind::kLossStorm: {
      auto* link = net_.link(event.target);
      const double before = link->config().loss_probability;
      link->set_loss_probability(event.magnitude);
      if (reverts) {
        net_.sim().schedule_after(event.hold, [this, event, link, before] {
          note(event, "revert");
          link->set_loss_probability(before);
        });
      }
      return;
    }
    case FaultKind::kJitterStorm: {
      auto* link = net_.link(event.target);
      const double before = link->config().jitter_sigma;
      link->set_jitter_sigma(event.magnitude);
      if (reverts) {
        net_.sim().schedule_after(event.hold, [this, event, link, before] {
          note(event, "revert");
          link->set_jitter_sigma(before);
        });
      }
      return;
    }
    case FaultKind::kForgedFlood:
    case FaultKind::kSpoofedFlood:
    case FaultKind::kFlashCrowd:
      // The generator starts the burst now and ends it on its own
      // (`hold` is the burst duration) — nothing to revert. Launch
      // failures can only be mid-run conditions (e.g. the origin router
      // crashed); they are noted, not fatal.
      if (!attack_hooks_.launch(event).ok()) note(event, "launch-failed");
      return;
  }
  if (reverts) {
    net_.sim().schedule_after(event.hold, [this, event] { revert(event); });
  }
}

void ChaosEngine::revert(const FaultEvent& event) {
  sim_thread_role.assert_held();
  note(event, "revert");
  switch (event.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkFlap:
      net_.set_link_up(event.target, true);
      return;
    case FaultKind::kRegionOutage:
      for (const std::string& label : region_link_labels(event.target)) {
        net_.set_link_up(label, true);
      }
      return;
    case FaultKind::kControlOutage:
      for (auto* service : services_for(event.target)) {
        service->set_available(true);
      }
      return;
    case FaultKind::kRouterCrash:
      if (auto* router = net_.router(*IsdAs::parse(event.target))) {
        router->restart();
      }
      return;
    case FaultKind::kLinkUp:
    case FaultKind::kLossStorm:
    case FaultKind::kJitterStorm:
    case FaultKind::kForgedFlood:
    case FaultKind::kSpoofedFlood:
    case FaultKind::kFlashCrowd:
      return;  // reverted inline (storms) or nothing to revert
  }
}

}  // namespace sciera::chaos
