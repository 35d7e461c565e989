// Figure 3: SCIERA deployment and estimated effort over time — the
// learning-curve story of Section 5.3 / Appendix C.
#include "bench_common.h"
#include "deploy/effort.h"

using namespace sciera;
using namespace sciera::deploy;

int main() {
  bench::print_header(
      "Figure 3 — SCIERA deployment and estimated effort over time",
      "initial setups demanded significant effort; subsequent deployments "
      "of the same type were simplified (experience + automation + NSP "
      "familiarity)");

  const auto timeline = effort_timeline(sciera_deployments());

  analysis::Series effort_series{"effort", {}};
  std::printf("%-20s %-9s %-22s %8s\n", "deployment", "date", "kind",
              "effort");
  for (const auto& point : timeline) {
    std::printf("%-20s %04d-%02d  %-22s %8.2f\n",
                point.deployment.name.c_str(), point.deployment.year,
                point.deployment.month,
                connection_kind_name(point.deployment.kind), point.effort);
    effort_series.points.emplace_back(point.deployment.timeline_month(),
                                      point.effort);
  }
  std::printf("\n%s\n",
              analysis::render_chart({effort_series},
                                     "months since Jan 2022",
                                     "estimated effort (person-weeks)")
                  .c_str());

  // Shape checks.
  double first_year_total = 0, last_year_total = 0;
  int first_year_n = 0, last_year_n = 0;
  double max_effort = 0;
  std::string max_name;
  for (const auto& point : timeline) {
    if (point.deployment.year <= 2023 && point.deployment.month <= 12 &&
        point.deployment.year == 2022) {
      first_year_total += point.effort;
      ++first_year_n;
    }
    if (point.deployment.year == 2025) {
      last_year_total += point.effort;
      ++last_year_n;
    }
    if (point.effort > max_effort) {
      max_effort = point.effort;
      max_name = point.deployment.name;
    }
  }
  const double first_mean = first_year_n ? first_year_total / first_year_n : 0;
  const double last_mean = last_year_n ? last_year_total / last_year_n : 0;
  std::printf("mean effort 2022: %.1f | mean effort 2025: %.1f\n\n",
              first_mean, last_mean);

  bench::print_check(max_name == "GEANT",
                     "the first core deployment (GEANT) cost the most");
  bench::print_check(last_mean < first_mean / 2,
                     "2025 deployments are far cheaper than 2022 ones");
  bench::print_check(timeline.size() >= 20, "all Figure 3 sites present");
  return bench::exit_code();
}
