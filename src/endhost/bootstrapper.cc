#include "endhost/bootstrapper.h"

namespace sciera::endhost {

Bootstrapper::Bootstrapper(const NetworkEnvironment& env, OsProfile os,
                           Config config)
    : env_(env), os_(std::move(os)), config_(std::move(config)) {}

Result<std::pair<HintMechanism, Duration>> Bootstrapper::discover_hint(
    Rng& rng) const {
  Duration spent = 0;
  for (HintMechanism mechanism : config_.preference) {
    if (!mechanism_available(mechanism, env_)) continue;
    spent += sample_hint_latency(mechanism, env_, os_, rng);
    return std::make_pair(mechanism, spent);
  }
  return Error{Errc::kUnreachable,
               "no bootstrapping hint mechanism available in this network"};
}

Result<BootstrapResult> Bootstrapper::run(const BootstrapServer& server,
                                          Rng& rng, SimTime now,
                                          const cppki::Trc* out_of_band_trc) {
  BootstrapResult result;

  auto hint = discover_hint(rng);
  if (!hint) return hint.error();
  result.timings.mechanism_used = hint->first;
  result.timings.hint_retrieval = hint->second;

  // Config retrieval: one HTTP GET for /topology and one for /trcs, plus
  // the server's service time and OS-stack overhead per request.
  server.count_request();
  server.count_request();
  Duration config_time = 0;
  for (int request = 0; request < 2; ++request) {
    const double wire_ms =
        to_ms(2 * env_.lan_one_way) * rng.lognormal_median(1.0, 0.25);
    const double service_ms = to_ms(BootstrapServer::kServiceTime) *
                              rng.lognormal_median(1.0, 0.5);
    const double stack_ms = to_ms(os_.syscall_overhead * 4) *
                            rng.lognormal_median(1.0, os_.variance_sigma);
    config_time += from_ms(wire_ms + service_ms + stack_ms);
  }
  result.timings.config_retrieval = config_time;

  // Anchor the TRC chain: out-of-band anchor if we have one, else TOFU.
  const auto& trcs = server.trcs();
  if (trcs.empty()) {
    return Error{Errc::kNotFound, "bootstrap server has no TRCs"};
  }
  if (out_of_band_trc != nullptr) {
    if (auto status = result.trust_store.anchor(*out_of_band_trc);
        !status.ok()) {
      return status.error();
    }
  } else if (auto status = result.trust_store.anchor(trcs.front());
             !status.ok()) {
    return status.error();
  }
  // Later TRCs must chain from the anchor.
  for (std::size_t i = 1; i < trcs.size(); ++i) {
    if (auto status = result.trust_store.update(trcs[i]); !status.ok()) {
      return status.error();
    }
  }

  // Verify the signed topology against the (now anchored) trust chain.
  const SignedTopology& signed_topo = server.topology();
  if (auto status = verify_signed_topology(signed_topo, result.trust_store, now);
      !status.ok()) {
    return status.error();
  }
  auto parsed = topology::parse(signed_topo.topology_text);
  if (!parsed) return parsed.error();
  result.local_topology = std::move(parsed).value();
  result.local_ia = signed_topo.as;
  return result;
}

}  // namespace sciera::endhost
