// sciera_chaos: soak the full SCIERA topology under a named fault plan
// and emit a survivability report as JSON (delivery ratio, delivery-gap
// distribution, the daemons' lookup error budget, the self-healing
// reconvergence section, and the executed ScheduleDigest). Output is
// fully determined by (plan, seed, duration, resilience/self-healing
// flags): two same-seed runs are byte-identical, and the chaos.soak_smoke
// and chaos.reconverge_smoke ctests enforce that across processes.
//
// Exit codes: 0 success, 1 soak, report-schema or report-write failure,
// 2 usage error (including an unknown plan name, a malformed number, or a
// --duration-ms outside [0, INT64_MAX / 1 ms]).
//
// Usage: sciera_chaos <plan> [--seed N] [--duration-ms N]
//                            [--no-resilience] [--self-healing]
//                            [--scalar-router] [--attack-plan NAME]
//                            [--no-defenses] [--out FILE]
//        sciera_chaos --list-plans
//        sciera_chaos --thread-smoke
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "chaos/soak.h"
#include "cli.h"
#include "obs/metrics.h"

namespace {

constexpr const char* kUsage =
    "usage: sciera_chaos <plan> [--seed N] [--duration-ms N] "
    "[--no-resilience] [--self-healing] [--scalar-router] "
    "[--attack-plan NAME] [--no-defenses] [--out FILE]\n"
    "       sciera_chaos --list-plans\n"
    "       sciera_chaos --thread-smoke";

int list_plans() {
  for (const std::string& name : sciera::chaos::plan_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

// Hammers the process-wide metrics registry from concurrent threads:
// series registration and instance_label, with the series count read
// while other workers register. Counter cells themselves are single-writer
// by design — each worker increments only its own series, and the
// verifying snapshot happens after the join. Run under
// SCIERA_SANITIZE=thread this checks the sciera::Mutex discipline the
// thread-safety annotations promise.
int thread_smoke() {
  using sciera::obs::Labels;
  using sciera::obs::MetricsRegistry;

  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kIterations = 2000;
  constexpr std::size_t kSlots = 8;

  MetricsRegistry registry;

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&registry, w] {
      std::string worker = "w";
      worker += std::to_string(w);
      for (std::size_t i = 0; i < kIterations; ++i) {
        // Registration path: same key re-resolved every iteration, plus a
        // rotating slot label so fresh series keep being created while
        // other threads read the registry.
        auto& total = registry.counter(
            "sciera_smoke_total", Labels{{"worker", worker}});
        total.inc();
        auto& slot = registry.counter(
            "sciera_smoke_slot_total",
            Labels{{"worker", worker},
                   {"slot", std::to_string(i % kSlots)}});
        slot.inc();
        (void)registry.instance_label("smoke", "smoke-" + worker);
        if (i % 64 == 0) (void)registry.series();
      }
    });
  }
  for (auto& t : workers) t.join();

  // Single-threaded verification: every increment must have landed
  // exactly once.
  std::uint64_t total = 0;
  std::uint64_t slot_total = 0;
  for (const auto& sample : registry.snapshot()) {
    if (sample.name == "sciera_smoke_total") total += sample.counter_value;
    if (sample.name == "sciera_smoke_slot_total") {
      slot_total += sample.counter_value;
    }
  }
  const std::uint64_t expected = kWorkers * kIterations;
  const bool ok = total == expected && slot_total == expected;
  std::printf("thread smoke: workers=%zu iterations=%zu counted=%llu/%llu %s\n",
              kWorkers, kIterations, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(expected), ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sciera::cli::FlagSet flags("sciera_chaos", kUsage);
  if (argc < 2) return flags.usage();
  if (std::strcmp(argv[1], "--list-plans") == 0) return list_plans();
  if (std::strcmp(argv[1], "--thread-smoke") == 0) {
    return thread_smoke();
  }

  const std::string plan_name = argv[1];
  sciera::chaos::SoakOptions options;
  std::int64_t duration_ms = options.duration / sciera::kMillisecond;
  bool no_resilience = false;
  std::string out_path;
  std::string attack_plan_name;
  flags.flag("--seed", &options.seed);
  flags.flag("--duration-ms", &duration_ms);
  flags.flag("--no-resilience", &no_resilience);
  flags.flag("--self-healing", &options.self_healing);
  // Layer a named attack plan's events on top of the base plan (so every
  // legacy incident can be rerun with hostile traffic on top).
  flags.flag("--attack-plan", &attack_plan_name);
  // Defenses A/B: drop the in-path filters / router overload control
  // while keeping the offered traffic identical.
  flags.flag("--no-defenses", [&options] { options.defenses = false; });
  // Fast-path A/B: scalar frame-by-frame border routers. The report must
  // be byte-identical to the batched default.
  flags.flag("--scalar-router",
             [&options] { options.batched_router = false; });
  flags.flag("--out", &out_path);
  if (!flags.parse(argc, argv, 2)) return 2;
  if (!flags.positionals().empty()) return flags.usage();
  // The bound keeps duration_ms * kMillisecond inside int64.
  constexpr std::int64_t kMaxDurationMs =
      std::numeric_limits<std::int64_t>::max() / sciera::kMillisecond;
  if (duration_ms < 0 || duration_ms > kMaxDurationMs) {
    std::fprintf(stderr, "sciera_chaos: --duration-ms must be in [0, %lld]\n",
                 static_cast<long long>(kMaxDurationMs));
    return flags.usage();
  }
  options.duration = duration_ms * sciera::kMillisecond;
  options.resilience = !no_resilience;

  auto plan = sciera::chaos::plan_by_name(plan_name);
  if (!plan.ok()) {
    std::fprintf(stderr, "sciera_chaos: %s (try --list-plans)\n",
                 plan.error().message.c_str());
    return 2;
  }
  if (!attack_plan_name.empty()) {
    auto attack_plan = sciera::chaos::plan_by_name(attack_plan_name);
    if (!attack_plan.ok()) {
      std::fprintf(stderr, "sciera_chaos: %s (try --list-plans)\n",
                   attack_plan.error().message.c_str());
      return 2;
    }
    for (const auto& event : attack_plan->events) plan->add(event);
    plan->name += "+" + attack_plan->name;
  }
  auto report = sciera::chaos::run_soak(*plan, options);
  if (!report.ok()) {
    std::fprintf(stderr, "sciera_chaos: soak failed: %s\n",
                 report.error().message.c_str());
    return 1;
  }
  const std::string json = report->to_json();
  // Schema self-check: a report that lost a required section must fail
  // the run, not ship a silently truncated artifact.
  if (!sciera::chaos::validate_report_json(json)) {
    std::fprintf(stderr,
                 "sciera_chaos: report failed sciera.chaos.soak.v1 schema "
                 "self-check\n");
    return 1;
  }
  return sciera::cli::write_output("sciera_chaos", out_path, json) ? 0 : 1;
}
