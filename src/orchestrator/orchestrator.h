// The SCION Orchestrator (Section 4.4): the toolchain that "cut SCION AS
// setup and management from days to a few hours". Modelled as a workflow
// engine over the real network objects:
//   * guided AS onboarding (keys, enrollment, links, bootstrap server),
//   * core management tasks (add certificate, add link),
//   * an aggregated service-status dashboard with per-service health,
//   * the automated certificate-renewal job (with §4.5's open-source CA),
//   * continuous connectivity monitoring that alerts after a fixed
//     number of consecutive failed probes (Monitor).
#pragma once

#include <string>
#include <vector>

#include "controlplane/control_plane.h"
#include "endhost/bootstrap_server.h"

namespace sciera::orchestrator {

enum class SetupStep : std::uint8_t {
  kGenerateKeys,
  kRequestCertificate,
  kConfigureBorderRouter,
  kProvisionLinks,
  kDeployBootstrapServer,
  kRegisterSegments,
  kConnectivityCheck,
};

[[nodiscard]] const char* setup_step_name(SetupStep step);

enum class ServiceHealth : std::uint8_t { kHealthy, kDegraded, kDown };

struct ServiceStatus {
  std::string service;  // "control-service", "border-router", ...
  ServiceHealth health = ServiceHealth::kHealthy;
  std::string detail;
};

struct StatusDashboard {
  IsdAs as;
  SimTime generated_at = 0;
  std::vector<ServiceStatus> services;

  [[nodiscard]] bool all_healthy() const;
  [[nodiscard]] std::string render() const;
};

// One operator's view of one AS, driving setup and operations through the
// orchestrator instead of hand-edited configuration.
class Orchestrator {
 public:
  struct SetupReport {
    std::vector<std::pair<SetupStep, bool>> steps;  // step, succeeded
    Duration wall_time = 0;

    [[nodiscard]] bool succeeded() const;
  };

  Orchestrator(controlplane::ScionNetwork& net, IsdAs as);

  // Runs the guided onboarding workflow end to end. Assumes the AS exists
  // in the topology (its L2 circuits are provisioned out of band); the
  // orchestrator does everything the paper lists: certs, router config,
  // bootstrap server, beacon registration, connectivity self-check.
  [[nodiscard]] SetupReport run_setup();

  // Management task: renew this AS's certificate now (delegates to the
  // ISD's CA, §4.5).
  [[nodiscard]] Status renew_certificate();

  // The aggregated status dashboard (§4.4: "easy access to relevant
  // logs, making it easier for new operators to troubleshoot").
  [[nodiscard]] StatusDashboard dashboard();

  [[nodiscard]] const endhost::BootstrapServer* bootstrap_server() const {
    return bootstrap_server_.get();
  }

 private:
  controlplane::ScionNetwork& net_;
  IsdAs as_;
  std::unique_ptr<endhost::BootstrapServer> bootstrap_server_;
};

// Continuous connectivity monitoring (§4.4): "we implemented continuous
// connectivity monitoring from our infrastructure to all connected ASes...
// when an issue arises, our system alerts the affected parties via email."
// An AS is alerted on after kFailureThreshold consecutive failed probes
// and cleared on the first probe that reaches it again.
class Monitor {
 public:
  struct Alert {
    SimTime raised_at = 0;
    IsdAs affected;
    std::string reason;
    bool cleared = false;
    SimTime cleared_at = 0;
  };

  // Consecutive failed probes before alerting (avoids flapping mail).
  static constexpr int kFailureThreshold = 3;

  Monitor(controlplane::ScionNetwork& net, IsdAs vantage)
      : net_(net), vantage_(vantage) {}

  // Probes reachability of every AS once (control-plane path existence +
  // data-plane usability) and updates alert state. Returns newly raised
  // alerts.
  std::vector<Alert> probe_all();

  [[nodiscard]] const std::vector<Alert>& alert_log() const { return log_; }
  [[nodiscard]] std::size_t open_alerts() const;

 private:
  controlplane::ScionNetwork& net_;
  IsdAs vantage_;
  std::map<IsdAs, int> consecutive_failures_;
  std::map<IsdAs, std::size_t> open_alert_index_;
  std::vector<Alert> log_;
};

}  // namespace sciera::orchestrator
