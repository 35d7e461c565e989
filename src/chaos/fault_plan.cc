#include "chaos/fault_plan.h"

#include "topology/sciera_net.h"

namespace sciera::chaos {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kRegionOutage: return "region_outage";
    case FaultKind::kControlOutage: return "control_outage";
    case FaultKind::kRouterCrash: return "router_crash";
    case FaultKind::kLossStorm: return "loss_storm";
    case FaultKind::kJitterStorm: return "jitter_storm";
    case FaultKind::kForgedFlood: return "forged_flood";
    case FaultKind::kSpoofedFlood: return "spoofed_flood";
    case FaultKind::kFlashCrowd: return "flash_crowd";
  }
  return "unknown";
}

FaultPlan kreonet_ring_cut_plan() {
  namespace a = topology::ases;
  FaultPlan plan;
  plan.name = "kreonet-ring-cut";
  // The KISTI control services go into maintenance first, so the daemons'
  // caches are all they have when the ring is cut.
  plan.add({1 * kSecond, FaultKind::kControlOutage, "*", 0.0, 8 * kSecond});
  const Duration cut = 6 * kSecond;
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-ams-chg", 0.0, cut});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-chg-stl", 0.0, cut});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-stl-dj", 0.0, cut});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-dj-hk", 0.0, cut});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-hk-sg", 0.0, cut});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kreonet-sg-ams", 0.0, cut});
  // The Daejeon router restarts mid-incident with state loss.
  plan.add({3 * kSecond, FaultKind::kRouterCrash, a::kisti_dj().to_string(),
            0.0, 2 * kSecond});
  return plan;
}

FaultPlan transatlantic_flap_plan() {
  FaultPlan plan;
  plan.name = "transatlantic-flap";
  for (int i = 0; i < 4; ++i) {
    const SimTime base = (1 + 2 * i) * kSecond;
    plan.add({base, FaultKind::kLinkFlap, "geant-bridges", 0.0,
              400 * kMillisecond});
    plan.add({base + 500 * kMillisecond, FaultKind::kLinkFlap,
              "geant-bridges-2", 0.0, 400 * kMillisecond});
  }
  plan.add({5 * kSecond, FaultKind::kLinkFlap, "kisti-ams-bridges", 0.0,
            2 * kSecond});
  return plan;
}

FaultPlan control_maintenance_plan() {
  namespace a = topology::ases;
  FaultPlan plan;
  plan.name = "control-maintenance";
  plan.add({1 * kSecond, FaultKind::kControlOutage, "*", 0.0, 5 * kSecond});
  plan.add({3 * kSecond, FaultKind::kRouterCrash, a::geant().to_string(), 0.0,
            1 * kSecond});
  return plan;
}

FaultPlan sg_ams_storm_plan() {
  FaultPlan plan;
  plan.name = "sg-ams-storm";
  const Duration hold = 4 * kSecond;
  plan.add({1 * kSecond, FaultKind::kLossStorm, "kreonet-sg-ams", 0.05, hold});
  plan.add({1 * kSecond, FaultKind::kLossStorm, "cae1-sg-ams", 0.10, hold});
  plan.add({1 * kSecond, FaultKind::kJitterStorm, "kaust1-sg-ams", 0.4, hold});
  plan.add({2 * kSecond, FaultKind::kLinkFlap, "kaust2-sg-ams", 0.0,
            2 * kSecond});
  return plan;
}

FaultPlan mixed_mayhem_plan() {
  namespace a = topology::ases;
  FaultPlan plan;
  plan.name = "mixed-mayhem";
  plan.add({1 * kSecond, FaultKind::kRegionOutage, "Singapore", 0.0,
            3 * kSecond});
  plan.add({2 * kSecond, FaultKind::kControlOutage,
            a::kisti_ams().to_string(), 0.0, 4 * kSecond});
  plan.add({3 * kSecond, FaultKind::kRouterCrash, a::bridges().to_string(),
            0.0, 1500 * kMillisecond});
  plan.add({4 * kSecond, FaultKind::kLossStorm, "geant-kisti-sg", 0.08,
            3 * kSecond});
  plan.random.flaps = 12;
  plan.random.start = 1 * kSecond;
  plan.random.window = 8 * kSecond;
  return plan;
}

FaultPlan forged_flood_plan() {
  namespace a = topology::ases;
  FaultPlan plan;
  plan.name = "forged-flood";
  // The compromised GEANT AS opens with a sustained forged-MAC flood
  // against the workload's hosts (magnitude = packets/second).
  plan.add({1 * kSecond, FaultKind::kForgedFlood, a::geant().to_string(),
            5000.0, 6 * kSecond});
  // A spoofed-source flood joins from BRIDGES, fabricating a fresh origin
  // AS per packet — the filter-table exhaustion vector. While both floods
  // overlap the routers' data-class admission is over budget too.
  plan.add({2 * kSecond, FaultKind::kSpoofedFlood, a::bridges().to_string(),
            4000.0, 4 * kSecond});
  // A legitimate flash crowd from KISTI Amsterdam rides on top: valid
  // authenticators, so defenses must pass it while shedding the floods.
  plan.add({3 * kSecond, FaultKind::kFlashCrowd, a::kisti_ams().to_string(),
            1500.0, 3 * kSecond});
  // Mid-flood link cut: reconvergence has to complete while the floods
  // still rage — the report's reconverge-under-flood gate.
  plan.add({4 * kSecond, FaultKind::kLinkFlap, "kreonet-sg-ams", 0.0,
            2 * kSecond});
  return plan;
}

bool plan_has_attack(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kForgedFlood:
      case FaultKind::kSpoofedFlood:
      case FaultKind::kFlashCrowd:
        return true;
      default:
        break;
    }
  }
  return false;
}

std::vector<std::string> plan_names() {
  return {"kreonet-ring-cut", "transatlantic-flap", "control-maintenance",
          "sg-ams-storm", "mixed-mayhem", "forged-flood"};
}

Result<FaultPlan> plan_by_name(const std::string& name) {
  if (name == "kreonet-ring-cut") return kreonet_ring_cut_plan();
  if (name == "transatlantic-flap") return transatlantic_flap_plan();
  if (name == "control-maintenance") return control_maintenance_plan();
  if (name == "sg-ams-storm") return sg_ams_storm_plan();
  if (name == "mixed-mayhem") return mixed_mayhem_plan();
  if (name == "forged-flood") return forged_flood_plan();
  return Error{Errc::kNotFound, "unknown fault plan: " + name};
}

}  // namespace sciera::chaos
