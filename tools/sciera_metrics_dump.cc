// sciera_metrics_dump: runs a named scenario against the full SCIERA
// topology and emits the observability layer's view of it — the metrics
// registry (Prometheus exposition text and/or JSON) and the flight
// recorder's trace ring. Output is fully determined by the scenario seed:
// two runs of the same scenario produce byte-identical dumps, and ctest
// enforces that (tools.metrics_dump_deterministic).
//
// Exit codes: 0 success, 1 the dump could not be written, 2 usage error
// (unknown flag or scenario).
//
// Usage: sciera_metrics_dump [failover|campaign] [--text|--json|--both]
#include <cstdio>
#include <cstring>
#include <string>

#include "bgp/bgp.h"
#include "cli.h"
#include "endhost/pan.h"
#include "measure/campaign.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "topology/sciera_net.h"

namespace sciera {
namespace {

namespace a = topology::ases;

// A cross-Atlantic flow that survives a mid-flight link failure: traffic
// flows UVa -> OVGU, the active path's second link is cut while a packet
// is on the wire (exercising the in-flight cancellation path), the border
// router answers the next send with SCMP ExternalInterfaceDown, the
// daemon quarantines the path, and traffic fails over to an alternative.
void run_failover_scenario() {
  controlplane::ScionNetwork network{topology::build_sciera()};

  endhost::Daemon src_daemon{network, a::uva()};
  auto src_ctx = endhost::PanContext::Builder{}
                     .net(network)
                     .address({a::uva(), 0x0A0000C8})
                     .daemon(src_daemon)
                     .build(Rng{42});
  if (!src_ctx.ok()) return;

  endhost::Daemon dst_daemon{network, a::ovgu()};
  auto dst_ctx = endhost::PanContext::Builder{}
                     .net(network)
                     .address({a::ovgu(), 0x0A0000C9})
                     .daemon(dst_daemon)
                     .build(Rng{43});
  if (!dst_ctx.ok()) return;

  endhost::PanSocket* echo_ptr = nullptr;
  auto echo = endhost::PanSocket::open(
      **dst_ctx, 4242,
      [&](const dataplane::Address& src, std::uint16_t port,
          const Bytes& data, SimTime) {
        (void)echo_ptr->send_to(src, port, data);
      });
  if (!echo.ok()) return;
  echo_ptr = echo->get();

  auto sock = endhost::PanSocket::open(
      **src_ctx, 0,
      [](const dataplane::Address&, std::uint16_t, const Bytes&, SimTime) {});
  if (!sock.ok()) return;

  // Data-plane failure feedback: SCMP errors quarantine the active path.
  std::string active_fingerprint;
  (*src_ctx)->stack().set_scmp_receiver(
      [&](const dataplane::ScionPacket&, const dataplane::ScmpMessage& message,
          SimTime) {
        if (message.is_error() && !active_fingerprint.empty()) {
          (*src_ctx)->report_path_down(active_fingerprint);
        }
      });

  const dataplane::Address peer{a::ovgu(), 0x0A0000C9};
  (void)(*sock)->send_to(peer, 4242, bytes_of("ping"));
  network.sim().run_for(3 * kSecond);

  // Cut the active path's second link while a fresh packet is in flight.
  auto path = (*sock)->current_path(a::ovgu());
  if (path.ok() && path->links.size() > 1) {
    active_fingerprint = path->fingerprint();
    simnet::Link* cut = network.link(path->links[1]);
    (void)(*sock)->send_to(peer, 4242, bytes_of("mid-flight"));
    // ~1.1ms to clear the first hop, ~50ms across the Atlantic: 10ms in
    // catches the frame on the wire of the cut link.
    network.sim().schedule_after(10 * kMillisecond,
                                 [cut] { cut->set_up(false); });
    // Sent just before the cut, arriving at the failed egress just after:
    // the border router answers with SCMP ExternalInterfaceDown and the
    // daemon quarantines the path.
    network.sim().schedule_after(9500 * kMicrosecond, [&] {
      (void)(*sock)->send_to(peer, 4242, bytes_of("probe"));
    });
    network.sim().run_for(3 * kSecond);
    // Failover: the quarantined path is excluded, traffic takes another.
    (void)(*sock)->send_to(peer, 4242, bytes_of("failover"));
    network.sim().run_for(3 * kSecond);
  }
}

// A compressed multiping campaign (Section 5.4): three hours at the
// paper's ten-minute aggregation granularity, full incident machinery.
void run_campaign_scenario() {
  controlplane::ScionNetwork network{topology::build_sciera()};
  bgp::BgpNetwork bgp{network.topology()};
  measure::CampaignOptions options;
  options.duration = 3 * kHour;
  measure::Campaign campaign{network, bgp, options};
  (void)campaign.run();
}

}  // namespace
}  // namespace sciera

int main(int argc, char** argv) {
  std::string scenario = "failover";
  bool text = true;
  bool json = false;
  sciera::cli::FlagSet flags(
      "sciera_metrics_dump",
      "usage: sciera_metrics_dump [failover|campaign] "
      "[--text|--json|--both]");
  // Output-mode selectors are tri-state (text xor json xor both), so they
  // bind as callbacks rather than independent booleans.
  flags.flag("--text", [&] { text = true; json = false; });
  flags.flag("--json", [&] { text = false; json = true; });
  flags.flag("--both", [&] { text = true; json = true; });
  if (!flags.parse(argc, argv)) return 2;
  if (flags.positionals().size() > 1) return flags.usage();
  if (!flags.positionals().empty()) scenario = flags.positionals().front();

  if (scenario == "failover") {
    sciera::run_failover_scenario();
  } else if (scenario == "campaign") {
    sciera::run_campaign_scenario();
  } else {
    std::fprintf(stderr, "sciera_metrics_dump: unknown scenario '%s'\n",
                 scenario.c_str());
    return flags.usage();
  }

  const auto& registry = sciera::obs::MetricsRegistry::global();
  const auto& recorder = sciera::obs::FlightRecorder::global();
  std::string out;
  if (text) {
    out += sciera::obs::export_text(registry);
    out += sciera::obs::export_trace_text(recorder);
  }
  if (json) {
    out += "{\"metrics\":";
    out += sciera::obs::export_json(registry);
    out += ",\"trace\":";
    out += sciera::obs::export_trace_json(recorder);
    out += "}\n";
  }
  return sciera::cli::write_output("sciera_metrics_dump", "", out) ? 0 : 1;
}
