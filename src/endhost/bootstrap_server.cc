#include "endhost/bootstrap_server.h"

namespace sciera::endhost {

Bytes SignedTopology::signing_payload() const {
  Writer w;
  w.str("sciera-topology-v1");
  w.u64(as.packed());
  w.str(topology_text);
  return std::move(w).take();
}

BootstrapServer::BootstrapServer(IsdAs as, std::string local_view_text,
                                 const cppki::AsCredentials& creds,
                                 std::vector<cppki::Trc> trcs)
    : trcs_(std::move(trcs)) {
  topology_.as = as;
  topology_.topology_text = std::move(local_view_text);
  refresh(topology_.topology_text, creds);
}

void BootstrapServer::refresh(std::string local_view_text,
                              const cppki::AsCredentials& creds) {
  topology_.topology_text = std::move(local_view_text);
  topology_.as_cert = creds.as_cert;
  topology_.ca_cert = creds.ca_cert;
  topology_.signature = crypto::Ed25519::sign(creds.signing_key,
                                              topology_.signing_payload());
}

std::string local_topology_view(const topology::Topology& topo, IsdAs as) {
  topology::Topology slice;
  const auto* info = topo.find_as(as);
  if (info == nullptr) return "";
  (void)slice.add_as(*info);
  for (topology::LinkId id : topo.links_of(as)) {
    const auto* link = topo.find_link(id);
    const IsdAs other = link->other(as);
    if (slice.find_as(other) == nullptr) {
      (void)slice.add_as(*topo.find_as(other));
    }
    (void)slice.add_link(link->label, link->a, link->b, link->type,
                         link->delay, link->bandwidth_bps, link->a_iface,
                         link->b_iface);
  }
  return topology::serialize(slice);
}

Status verify_signed_topology(const SignedTopology& topo,
                              const cppki::TrustStore& store, SimTime now) {
  const auto* trc = store.latest(topo.as.isd());
  if (trc == nullptr) {
    return Error{Errc::kNotFound,
                 "no anchored TRC for ISD " + std::to_string(topo.as.isd())};
  }
  if (auto status = cppki::verify_chain(topo.as_cert, topo.ca_cert, *trc, now);
      !status.ok()) {
    return status;
  }
  if (topo.as_cert.subject != topo.as) {
    return Error{Errc::kVerificationFailed,
                 "topology signed by foreign AS certificate"};
  }
  if (!crypto::Ed25519::verify(topo.as_cert.subject_key,
                               topo.signing_payload(), topo.signature)) {
    return Error{Errc::kVerificationFailed, "bad topology signature"};
  }
  return {};
}

}  // namespace sciera::endhost
