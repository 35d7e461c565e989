// Orchestrator tests (Section 4.4): the guided setup workflow, management
// tasks, the status dashboard, and the continuous connectivity monitor
// with its alerting state machine.
#include <gtest/gtest.h>

#include "orchestrator/orchestrator.h"
#include "topology/sciera_net.h"

namespace sciera::orchestrator {
namespace {

namespace a = topology::ases;

controlplane::ScionNetwork& net() {
  static controlplane::ScionNetwork network{topology::build_sciera()};
  return network;
}

TEST(Orchestrator, SetupWorkflowSucceedsForLeaf) {
  Orchestrator orchestrator{net(), a::ufms()};
  const auto report = orchestrator.run_setup();
  EXPECT_TRUE(report.succeeded());
  EXPECT_EQ(report.steps.size(), 7u);
  for (const auto& [step, ok] : report.steps) {
    EXPECT_TRUE(ok) << setup_step_name(step);
  }
  // The setup deployed a usable bootstrap server.
  ASSERT_NE(orchestrator.bootstrap_server(), nullptr);
  EXPECT_EQ(orchestrator.bootstrap_server()->topology().as, a::ufms());
}

TEST(Orchestrator, SetupWorkflowSucceedsForCore) {
  Orchestrator orchestrator{net(), a::geant()};
  const auto report = orchestrator.run_setup();
  EXPECT_TRUE(report.succeeded());
}

TEST(Orchestrator, CertificateRenewalWorks) {
  Orchestrator orchestrator{net(), a::sidn()};
  const auto renewed_before = net().pki(71)->ca().metrics().renewed->value();
  EXPECT_TRUE(orchestrator.renew_certificate().ok());
  EXPECT_GT(net().pki(71)->ca().metrics().renewed->value(), renewed_before);
}

TEST(Orchestrator, DashboardHealthyOnCleanNetwork) {
  Orchestrator orchestrator{net(), a::ovgu()};
  (void)orchestrator.run_setup();
  const auto dash = orchestrator.dashboard();
  EXPECT_TRUE(dash.all_healthy()) << dash.render();
  const std::string text = dash.render();
  EXPECT_NE(text.find("control-service"), std::string::npos);
  EXPECT_NE(text.find("border-router"), std::string::npos);
  EXPECT_NE(text.find("as-certificate"), std::string::npos);
}

TEST(Orchestrator, DashboardFlagsDownLinks) {
  Orchestrator orchestrator{net(), a::sidn()};
  (void)orchestrator.run_setup();
  net().set_link_up("geant-sidn", false);
  const auto dash = orchestrator.dashboard();
  EXPECT_FALSE(dash.all_healthy());
  bool links_flagged = false;
  for (const auto& service : dash.services) {
    if (service.service == "links") {
      links_flagged = service.health == ServiceHealth::kDown;
    }
  }
  EXPECT_TRUE(links_flagged) << dash.render();
  net().set_link_up("geant-sidn", true);
}

TEST(Monitor, NoAlertsOnHealthyNetwork) {
  Monitor monitor{net(), a::geant()};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(monitor.probe_all().empty());
  }
  EXPECT_EQ(monitor.open_alerts(), 0u);
}

TEST(Monitor, AlertsAfterThresholdAndClears) {
  static_assert(Monitor::kFailureThreshold == 3);
  Monitor monitor{net(), a::geant()};
  // Isolate UFMS by cutting both of its uplinks.
  net().set_link_up("rnp-ufms", false);
  net().set_link_up("rnp-ufms-2", false);

  // Two failed probes: below the threshold, no mail yet.
  EXPECT_TRUE(monitor.probe_all().empty());
  EXPECT_TRUE(monitor.probe_all().empty());
  // Third: alert raised for exactly the affected AS.
  const auto raised = monitor.probe_all();
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].affected, a::ufms());
  EXPECT_EQ(monitor.open_alerts(), 1u);
  // No duplicate alert on subsequent failures.
  EXPECT_TRUE(monitor.probe_all().empty());
  EXPECT_EQ(monitor.open_alerts(), 1u);

  // Repair: alert clears.
  net().set_link_up("rnp-ufms", true);
  net().set_link_up("rnp-ufms-2", true);
  EXPECT_TRUE(monitor.probe_all().empty());
  EXPECT_EQ(monitor.open_alerts(), 0u);
  ASSERT_EQ(monitor.alert_log().size(), 1u);
  EXPECT_TRUE(monitor.alert_log()[0].cleared);
}

TEST(Monitor, FlappingDoesNotAlertBelowThreshold) {
  Monitor monitor{net(), a::kisti_dj()};
  for (int i = 0; i < 4; ++i) {
    net().set_link_up("kisti-dj-korea-univ", false);
    net().set_link_up("kisti-dj-korea-univ-2", false);
    EXPECT_TRUE(monitor.probe_all().empty());  // 1 failure
    net().set_link_up("kisti-dj-korea-univ", true);
    net().set_link_up("kisti-dj-korea-univ-2", true);
    EXPECT_TRUE(monitor.probe_all().empty());  // reset
  }
  EXPECT_EQ(monitor.open_alerts(), 0u);
}

}  // namespace
}  // namespace sciera::orchestrator
