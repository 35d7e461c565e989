// Section 5.6: the operator survey — regenerates every percentage the
// paper reports from the encoded response records.
#include "bench_common.h"
#include "deploy/survey.h"

using namespace sciera;
using namespace sciera::deploy;

int main() {
  bench::print_header(
      "Section 5.6 — operator survey (CAPEX/OPEX/deployment experience)",
      "37.5% set up within a month; 75% spent <20k USD on hardware; 75% "
      "rate OPEX comparable or lower; 87.5% spend <10% of workload on "
      "SCIERA");

  const auto responses = survey_responses();
  const auto summary = summarize(responses);
  std::printf("%s\n", render_summary(summary).c_str());

  bench::print_check(summary.respondents == 8, "eight respondents");
  bench::print_check(summary.pct_setup_under_month == 37.5,
                     "37.5% completed setup within one month");
  bench::print_check(summary.pct_hardware_under_20k == 75.0,
                     "75% spent under 20k USD on hardware");
  bench::print_check(summary.pct_no_licensing == 62.5,
                     "62.5% incurred no licensing costs (open source + L2)");
  bench::print_check(summary.pct_opex_comparable_or_lower == 75.0,
                     "75% rate OPEX comparable or lower");
  bench::print_check(summary.pct_under_10pct_workload == 87.5,
                     "87.5% spend <10% of their workload on SCIERA");
  bench::print_check(summary.pct_vendor_support_rare == 62.5,
                     "62.5% needed vendor support fewer than 3 times/year");
  return bench::exit_code();
}
