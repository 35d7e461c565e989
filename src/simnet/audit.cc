#include "simnet/audit.h"

#include "common/check.h"
#include "common/strings.h"

namespace sciera::simnet {

std::string DeterminismReport::to_string() const {
  if (deterministic()) {
    return strformat("deterministic: hash=%016llx events=%llu",
                     static_cast<unsigned long long>(first.hash),
                     static_cast<unsigned long long>(first.executed));
  }
  return strformat(
      "NONDETERMINISTIC: run1 hash=%016llx events=%llu vs "
      "run2 hash=%016llx events=%llu",
      static_cast<unsigned long long>(first.hash),
      static_cast<unsigned long long>(first.executed),
      static_cast<unsigned long long>(second.hash),
      static_cast<unsigned long long>(second.executed));
}

DeterminismReport audit_determinism(const Scenario& scenario) {
  DeterminismReport report;
  report.first = scenario();
  report.second = scenario();
  if (!report.deterministic()) {
    count_violation("simnet.nondeterministic_schedule");
  }
  return report;
}

}  // namespace sciera::simnet
