#include "orchestrator/orchestrator.h"

#include "common/strings.h"
#include "topology/parser.h"

namespace sciera::orchestrator {

const char* setup_step_name(SetupStep step) {
  switch (step) {
    case SetupStep::kGenerateKeys: return "generate-keys";
    case SetupStep::kRequestCertificate: return "request-certificate";
    case SetupStep::kConfigureBorderRouter: return "configure-border-router";
    case SetupStep::kProvisionLinks: return "provision-links";
    case SetupStep::kDeployBootstrapServer: return "deploy-bootstrap-server";
    case SetupStep::kRegisterSegments: return "register-segments";
    case SetupStep::kConnectivityCheck: return "connectivity-check";
  }
  return "?";
}

bool StatusDashboard::all_healthy() const {
  for (const auto& service : services) {
    if (service.health != ServiceHealth::kHealthy) return false;
  }
  return true;
}

std::string StatusDashboard::render() const {
  std::string out = strformat("AS %s status @ %s\n", as.to_string().c_str(),
                              format_time(generated_at).c_str());
  for (const auto& service : services) {
    const char* badge = service.health == ServiceHealth::kHealthy ? " OK "
                        : service.health == ServiceHealth::kDegraded
                            ? "WARN"
                            : "DOWN";
    out += strformat("  [%s] %-18s %s\n", badge, service.service.c_str(),
                     service.detail.c_str());
  }
  return out;
}

bool Orchestrator::SetupReport::succeeded() const {
  for (const auto& [step, ok] : steps) {
    if (!ok) return false;
  }
  return !steps.empty();
}

Orchestrator::Orchestrator(controlplane::ScionNetwork& net, IsdAs as)
    : net_(net), as_(as) {}

Orchestrator::SetupReport Orchestrator::run_setup() {
  SetupReport report;
  const SimTime started = net_.sim().now();
  auto* pki = net_.pki(as_.isd());

  // 1-2. Keys + certificate: the network enrolls ASes at construction; a
  // real onboarding re-runs issuance, which we model as a renewal request.
  report.steps.emplace_back(SetupStep::kGenerateKeys,
                            pki != nullptr &&
                                pki->credentials(as_) != nullptr);
  report.steps.emplace_back(SetupStep::kRequestCertificate,
                            renew_certificate().ok());

  // 3-4. Border router configured with every provisioned circuit.
  auto* router = net_.router(as_);
  const auto links = net_.topology().links_of(as_);
  report.steps.emplace_back(SetupStep::kConfigureBorderRouter,
                            router != nullptr);
  bool links_up = !links.empty();
  for (topology::LinkId id : links) {
    links_up = links_up && net_.link(id) != nullptr && net_.link(id)->is_up();
  }
  report.steps.emplace_back(SetupStep::kProvisionLinks, links_up);

  // 5. Bootstrap server serving the signed local topology + TRCs.
  bool bootstrap_ok = false;
  if (pki != nullptr) {
    if (const auto* creds = pki->credentials(as_)) {
      std::vector<cppki::Trc> trcs{pki->trc()};
      bootstrap_server_ = std::make_unique<endhost::BootstrapServer>(
          as_, endhost::local_topology_view(net_.topology(), as_), *creds,
          trcs);
      cppki::TrustStore store;
      bootstrap_ok =
          store.anchor(pki->trc()).ok() &&
          endhost::verify_signed_topology(bootstrap_server_->topology(),
                                          store, net_.sim().now())
              .ok();
    }
  }
  report.steps.emplace_back(SetupStep::kDeployBootstrapServer, bootstrap_ok);

  // 6. Beaconing must have produced segments reaching this AS (cores are
  // origins rather than termini, so they check core segments instead).
  const bool is_core = net_.topology().find_as(as_)->core;
  const bool segments_ok =
      is_core ? !net_.segments().cores_of(as_).empty()
              : !net_.segments().ups_of(as_).empty();
  report.steps.emplace_back(SetupStep::kRegisterSegments, segments_ok);

  // 7. Connectivity self-check: a path to some core AS of the ISD exists
  // and is usable on the data plane.
  bool connectivity = false;
  for (IsdAs core : net_.topology().core_ases(as_.isd())) {
    if (core == as_) {
      connectivity = true;
      break;
    }
    for (const auto& path : net_.paths(as_, core)) {
      if (net_.path_usable(path)) {
        connectivity = true;
        break;
      }
    }
    if (connectivity) break;
  }
  report.steps.emplace_back(SetupStep::kConnectivityCheck, connectivity);

  report.wall_time = net_.sim().now() - started;
  return report;
}

Status Orchestrator::renew_certificate() {
  auto* pki = net_.pki(as_.isd());
  if (pki == nullptr) {
    return Error{Errc::kNotFound, "no PKI for ISD " + std::to_string(as_.isd())};
  }
  const auto* creds = pki->credentials(as_);
  if (creds == nullptr) {
    return Error{Errc::kNotFound, as_.to_string() + " not enrolled"};
  }
  // Force re-issuance through the CA (a renewal, §4.5).
  auto& ca = const_cast<cppki::CertificateAuthority&>(pki->ca());
  auto cert = ca.issue(as_, creds->signing_key.pub(), net_.sim().now());
  if (!cert) return cert.error();
  return {};
}

StatusDashboard Orchestrator::dashboard() {
  StatusDashboard dash;
  dash.as = as_;
  dash.generated_at = net_.sim().now();

  // Control service.
  auto* services = net_.control_service_set(as_);
  auto* cs = services == nullptr ? nullptr : services->primary();
  dash.services.push_back(ServiceStatus{
      "control-service",
      cs != nullptr ? ServiceHealth::kHealthy : ServiceHealth::kDown,
      cs != nullptr
          ? strformat("cache %llu hits / %llu misses",
                      static_cast<unsigned long long>(
                          cs->metrics().cache_hits->value()),
                      static_cast<unsigned long long>(
                          cs->metrics().cache_misses->value()))
          : "not running"});

  // Border router + links.
  auto* router = net_.router(as_);
  if (router == nullptr) {
    dash.services.push_back(
        ServiceStatus{"border-router", ServiceHealth::kDown, "not running"});
  } else {
    const dataplane::BorderRouter::Metrics& m = router->metrics();
    const std::uint64_t forwarded = m.forwarded->value();
    const std::uint64_t drops =
        m.drop_mac->value() + m.drop_expired->value() +
        m.drop_bad_ingress->value() + m.drop_malformed->value();
    dash.services.push_back(ServiceStatus{
        "border-router",
        drops > forwarded / 10 ? ServiceHealth::kDegraded
                               : ServiceHealth::kHealthy,
        strformat("fwd %llu, delivered %llu, drops %llu",
                  static_cast<unsigned long long>(forwarded),
                  static_cast<unsigned long long>(m.delivered->value()),
                  static_cast<unsigned long long>(drops))});
  }

  std::size_t up_links = 0;
  const auto links = net_.topology().links_of(as_);
  for (topology::LinkId id : links) {
    if (net_.link(id)->is_up()) ++up_links;
  }
  dash.services.push_back(ServiceStatus{
      "links",
      up_links == links.size()
          ? ServiceHealth::kHealthy
          : (up_links == 0 ? ServiceHealth::kDown : ServiceHealth::kDegraded),
      strformat("%zu/%zu circuits up", up_links, links.size())});

  // Certificate freshness.
  const auto* creds = net_.pki(as_.isd())->credentials(as_);
  const SimTime now = net_.sim().now();
  ServiceHealth cert_health = ServiceHealth::kDown;
  std::string cert_detail = "no certificate";
  if (creds != nullptr) {
    if (creds->as_cert.covers(now)) {
      const Duration remaining = creds->as_cert.valid_until - now;
      cert_health = remaining > cppki::kRenewalMargin
                        ? ServiceHealth::kHealthy
                        : ServiceHealth::kDegraded;
      cert_detail = strformat("expires in %.1f days",
                              static_cast<double>(remaining) / kDay);
    } else {
      cert_detail = "EXPIRED";
    }
  }
  dash.services.push_back(
      ServiceStatus{"as-certificate", cert_health, cert_detail});

  // Bootstrap server.
  dash.services.push_back(ServiceStatus{
      "bootstrap-server",
      bootstrap_server_ != nullptr ? ServiceHealth::kHealthy
                                   : ServiceHealth::kDown,
      bootstrap_server_ != nullptr
          ? strformat("%zu requests served",
                      bootstrap_server_->requests_served())
          : "not deployed"});
  return dash;
}

std::vector<Monitor::Alert> Monitor::probe_all() {
  std::vector<Alert> raised;
  for (const auto& as_info : net_.topology().ases()) {
    const IsdAs target = as_info.ia;
    if (target == vantage_) continue;
    bool reachable = false;
    for (const auto& path : net_.paths(vantage_, target)) {
      if (net_.path_usable(path)) {
        reachable = true;
        break;
      }
    }
    if (reachable) {
      consecutive_failures_[target] = 0;
      const auto it = open_alert_index_.find(target);
      if (it != open_alert_index_.end()) {
        log_[it->second].cleared = true;
        log_[it->second].cleared_at = net_.sim().now();
        open_alert_index_.erase(it);
      }
      continue;
    }
    const int failures = ++consecutive_failures_[target];
    if (failures == kFailureThreshold &&
        !open_alert_index_.contains(target)) {
      Alert alert;
      alert.raised_at = net_.sim().now();
      alert.affected = target;
      alert.reason = strformat("unreachable from %s for %d probes",
                               vantage_.to_string().c_str(), failures);
      open_alert_index_[target] = log_.size();
      log_.push_back(alert);
      raised.push_back(alert);
    }
  }
  return raised;
}

std::size_t Monitor::open_alerts() const { return open_alert_index_.size(); }

}  // namespace sciera::orchestrator
