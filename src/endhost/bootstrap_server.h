// The bootstrapping server (Section 4.1.2): an HTTP server inside the AS
// serving the signed local topology ("/topology") and the TRCs needed to
// authenticate SCION entities. Topology payloads are signed with the AS
// certificate; the initial TRC is delivered for out-of-band/TOFU-style
// anchoring, later TRCs chain.
#pragma once

#include <string>
#include <vector>

#include "cppki/ca.h"
#include "topology/parser.h"

namespace sciera::endhost {

struct SignedTopology {
  IsdAs as;
  std::string topology_text;  // the AS-local view, serialized
  cppki::Certificate as_cert;
  cppki::Certificate ca_cert;
  crypto::Ed25519::Signature signature{};

  [[nodiscard]] Bytes signing_payload() const;
};

class BootstrapServer {
 public:
  // HTTP service time for one request, before network latency.
  static constexpr Duration kServiceTime = 2 * kMillisecond;

  // `local_view` is the AS's topology slice (its own entry and links);
  // the signing key is the AS's control-plane key.
  BootstrapServer(IsdAs as, std::string local_view_text,
                  const cppki::AsCredentials& creds,
                  std::vector<cppki::Trc> trcs);

  // GET /topology
  [[nodiscard]] const SignedTopology& topology() const { return topology_; }
  // GET /trcs
  [[nodiscard]] const std::vector<cppki::Trc>& trcs() const { return trcs_; }
  [[nodiscard]] std::size_t requests_served() const { return requests_; }
  void count_request() const { ++requests_; }

  // Re-signs after a topology change or certificate renewal.
  void refresh(std::string local_view_text, const cppki::AsCredentials& creds);

 private:
  SignedTopology topology_;
  std::vector<cppki::Trc> trcs_;
  mutable std::size_t requests_ = 0;
};

// Extracts the AS-local topology slice served to hosts: the AS itself and
// its attached links (enough for a host to reach border routers).
[[nodiscard]] std::string local_topology_view(const topology::Topology& topo,
                                              IsdAs as);

// Client-side verification of a fetched topology: signature chain up to
// the anchored TRC.
[[nodiscard]] Status verify_signed_topology(const SignedTopology& topo,
                                            const cppki::TrustStore& store,
                                            SimTime now);

}  // namespace sciera::endhost
