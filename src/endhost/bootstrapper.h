// The bootstrapper (Sections 4.1.2/4.1.3): discovers the bootstrapping
// server via the best available hint mechanism, fetches the signed
// topology and TRCs, verifies them, and hands the daemon (or the
// application library, in standalone mode) a ready-to-use configuration.
#pragma once

#include <optional>

#include "cppki/trc.h"
#include "endhost/bootstrap_server.h"
#include "endhost/hints.h"

namespace sciera::endhost {

struct BootstrapTimings {
  HintMechanism mechanism_used = HintMechanism::kDhcpVivo;
  Duration hint_retrieval = 0;
  Duration config_retrieval = 0;
  [[nodiscard]] Duration total() const {
    return hint_retrieval + config_retrieval;
  }
};

struct BootstrapResult {
  topology::Topology local_topology;  // AS-local slice
  IsdAs local_ia;
  cppki::TrustStore trust_store;
  BootstrapTimings timings;
};

class Bootstrapper {
 public:
  struct Config {
    // Preference order mirrors Appendix A's discussion: DHCP first (most
    // deployed), then DNS family, multicast last.
    std::vector<HintMechanism> preference = all_hint_mechanisms();
  };

  Bootstrapper(const NetworkEnvironment& env, OsProfile os, Config config);
  Bootstrapper(const NetworkEnvironment& env, OsProfile os)
      : Bootstrapper(env, std::move(os), Config{}) {}

  // Runs the full bootstrap against a server. An out-of-band TRC, if
  // provided, is the anchor; otherwise the server's first TRC is trusted
  // on first use (TOFU, the TLS-or-out-of-band caveat of Section 4.1.2).
  [[nodiscard]] Result<BootstrapResult> run(
      const BootstrapServer& server, Rng& rng, SimTime now,
      const cppki::Trc* out_of_band_trc = nullptr);

  // The hint-discovery step alone (for Figure 4's breakdown).
  [[nodiscard]] Result<std::pair<HintMechanism, Duration>> discover_hint(
      Rng& rng) const;

 private:
  NetworkEnvironment env_;
  OsProfile os_;
  Config config_;
};

}  // namespace sciera::endhost
