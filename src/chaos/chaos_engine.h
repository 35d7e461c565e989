// ChaosEngine: compiles a FaultPlan into simulator events against a live
// ScionNetwork. Every fault application and reversion happens at a
// scheduled simulation time, draws randomness only from the engine's
// seeded Rng (at arm time), and is recorded as a kChaosInject event in the
// network's flight recorder plus a sciera_chaos_injected_total{kind=...}
// counter — so an armed scenario replays bit-identically under
// simnet::audit_determinism() and the injected history is auditable after
// the fact.
#pragma once

#include <array>
#include <functional>

#include "chaos/fault_plan.h"
#include "controlplane/control_plane.h"

namespace sciera::chaos {

class ChaosEngine {
 public:
  ChaosEngine(controlplane::ScionNetwork& net, std::uint64_t seed);

  // Bridge to an attack-traffic generator (workload::AttackMatrix — the
  // chaos layer cannot depend on workload directly). `validate` runs at
  // arm time against each adversarial event; `launch` fires at the
  // event's scheduled time. Arming a plan that contains adversarial
  // events without hooks installed fails validation.
  struct AttackHooks {
    std::function<Status(const FaultEvent&)> validate;
    std::function<Status(const FaultEvent&)> launch;
  };
  void set_attack_hooks(AttackHooks hooks) { attack_hooks_ = std::move(hooks); }

  // Validates every event's target against the network, then schedules
  // the whole plan (scripted events plus the randomized campaign, whose
  // draws are all taken now) on net.sim(). Fails without scheduling
  // anything if any target does not resolve. May be called more than
  // once to layer plans.
  [[nodiscard]] Status arm(const FaultPlan& plan);

  // Fault applications so far (reversions not counted).
  [[nodiscard]] std::uint64_t faults_injected() const { return injected_; }

 private:
  void schedule(const FaultEvent& event);
  // Entry points of scheduled simulator events.
  void apply(const FaultEvent& event);
  void revert(const FaultEvent& event);
  // Links incident to an ISD-AS (by string) or to a PoP city.
  [[nodiscard]] std::vector<std::string> region_link_labels(
      const std::string& target) const;
  // The primary control services an event target names: one AS's, or
  // every AS's in topology order for "*". An AS without a service (its
  // ISD has no PKI) contributes none. Secondary replicas stay up to
  // absorb failover. Instantiates lazily, like ScionNetwork does.
  [[nodiscard]] std::vector<controlplane::ControlService*> services_for(
      const std::string& target);
  [[nodiscard]] Status validate(const FaultEvent& event);
  void note(const FaultEvent& event, const char* action);

  controlplane::ScionNetwork& net_;
  Rng rng_;
  std::uint64_t injected_ = 0;
  std::array<obs::Counter*, 11> injected_by_kind_{};
  AttackHooks attack_hooks_{};
  // "chaos", interned in the network's recorder, and the buffer a note's
  // text is composed in before it is interned (reused, so a note
  // allocates only the first time a text is seen).
  obs::TraceId trace_subject_ = 0;
  std::string note_text_;
};

}  // namespace sciera::chaos
