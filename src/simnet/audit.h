// Simnet determinism auditor. Every figure in the reproduction rests on
// the claim that a seeded scenario replays bit-identically; this auditor
// makes that claim testable. A scenario callback builds a fresh simulation
// world, drives it, and returns the simulator's ScheduleDigest; the
// auditor runs the scenario twice and compares the full event-schedule
// digests. Hidden iteration-order nondeterminism (pointer-keyed maps),
// uninitialized memory feeding a branch, or wall-clock leakage all perturb
// the schedule and show up as a hash mismatch.
#pragma once

#include <functional>
#include <string>

#include "simnet/simulator.h"

namespace sciera::simnet {

struct DeterminismReport {
  ScheduleDigest first;
  ScheduleDigest second;

  [[nodiscard]] bool deterministic() const { return first == second; }
  // "deterministic: hash=... events=..." or a mismatch description.
  [[nodiscard]] std::string to_string() const;
};

// Builds a world, runs it, returns the executed-schedule digest. The
// callback must construct everything (network, hosts, traffic) from
// scratch so the two runs share no mutable state.
using Scenario = std::function<ScheduleDigest()>;

// Runs the scenario twice and compares digests.
[[nodiscard]] DeterminismReport audit_determinism(const Scenario& scenario);

}  // namespace sciera::simnet
