// ChaosEngine: compiles a FaultPlan into simulator events against a live
// ScionNetwork. Every fault application and reversion happens at a
// scheduled simulation time, draws randomness only from the engine's
// seeded Rng (at arm time), and is recorded as a kChaosInject flight
// event plus a sciera_chaos_injected_total{kind=...} counter — so an
// armed scenario replays bit-identically under
// simnet::audit_determinism() and the injected history is auditable
// after the fact.
#pragma once

#include <array>
#include <functional>

#include "chaos/fault_plan.h"
#include "common/thread_annotations.h"
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
  [[nodiscard]] std::uint64_t faults_injected() const {
    sim_thread_role.assert_held();
    return injected_;
  }

 private:
  void schedule(const FaultEvent& event) SCIERA_REQUIRES(sim_thread_role);
  // Entry points of scheduled simulator events: they assert the role
  // themselves (the Simulator::Action capture site cannot carry the
  // annotation).
  void apply(const FaultEvent& event);
  void revert(const FaultEvent& event);
  // Links incident to an ISD-AS (by string) or to a PoP city.
  [[nodiscard]] std::vector<std::string> region_link_labels(
      const std::string& target) const;
  // Control services named by an event target ("*" = every AS, in
  // topology order). Instantiates lazily, like ScionNetwork does.
  [[nodiscard]] std::vector<controlplane::ControlService*> services_for(
      const std::string& target);
  [[nodiscard]] Status validate(const FaultEvent& event);
  void note(const FaultEvent& event, const char* action);

  controlplane::ScionNetwork& net_;
  // Campaign randomness and injection bookkeeping belong to the thread
  // driving this network's simulator.
  Rng rng_ SCIERA_GUARDED_BY(sim_thread_role);
  std::uint64_t injected_ SCIERA_GUARDED_BY(sim_thread_role) = 0;
  std::array<obs::Counter*, 11> injected_by_kind_{};
  AttackHooks attack_hooks_{};
  // "chaos", interned for the flight recorder, and the buffer a note's
  // text is composed in before it is interned (reused, so a note
  // allocates only the first time a text is seen).
  obs::TraceId trace_subject_ = 0;
  std::string note_text_;
};

}  // namespace sciera::chaos
