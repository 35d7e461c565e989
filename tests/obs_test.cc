// The observability layer: registry semantics (cell identity, label
// canonicalization, histogram bucketing), flight-recorder ring behaviour,
// exporter formats, and the determinism contract — the same seed must
// export a byte-identical snapshot, verified alongside the simnet
// schedule-digest auditor.
#include <gtest/gtest.h>

#include "endhost/dispatcher.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "simnet/audit.h"
#include "topology/sciera_net.h"

namespace sciera {
namespace {

namespace a = topology::ases;

using obs::FlightRecorder;
using obs::Labels;
using obs::MetricsRegistry;
using obs::TraceType;

TEST(MetricsRegistryTest, SameKeyReturnsSameCell) {
  MetricsRegistry registry;
  auto& c1 = registry.counter("requests_total", {{"svc", "a"}});
  auto& c2 = registry.counter("requests_total", {{"svc", "a"}});
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.inc(2);
  EXPECT_EQ(c1.value(), 3u);
  EXPECT_EQ(registry.series(), 1u);
}

TEST(MetricsRegistryTest, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  auto& c1 = registry.counter("x", {{"b", "2"}, {"a", "1"}});
  auto& c2 = registry.counter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&c1, &c2);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const Labels expected{{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(samples[0].labels, expected);
}

TEST(MetricsRegistryTest, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry registry;
  auto& c1 = registry.counter("x", {{"svc", "a"}});
  auto& c2 = registry.counter("x", {{"svc", "b"}});
  EXPECT_NE(&c1, &c2);
  EXPECT_EQ(registry.series(), 2u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  auto& g = registry.gauge("depth");
  g.set(5);
  g.add(-7);
  EXPECT_EQ(g.value(), -2);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  auto& h = registry.histogram("rtt_ms", {10, 20, 50});
  h.observe(9);    // bucket 0
  h.observe(10);   // bucket 0 (le semantics: 10 <= 10)
  h.observe(11);   // bucket 1
  h.observe(50);   // bucket 2
  h.observe(51);   // overflow
  h.observe(-3);   // bucket 0
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 9 + 10 + 11 + 50 + 51 - 3);
}

TEST(MetricsRegistryTest, InstanceLabelsAreUniquePerKind) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.instance_label("link", "geant-bridges"), "geant-bridges");
  EXPECT_EQ(registry.instance_label("link", "geant-bridges"),
            "geant-bridges#2");
  EXPECT_EQ(registry.instance_label("link", "geant-bridges"),
            "geant-bridges#3");
  // A different kind has its own namespace.
  EXPECT_EQ(registry.instance_label("router", "geant-bridges"),
            "geant-bridges");
}

TEST(MetricsRegistryTest, SnapshotIsSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.counter("b_total");
  registry.counter("a_total", {{"k", "2"}});
  registry.counter("a_total", {{"k", "1"}});
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_EQ(samples[0].labels[0].second, "1");
  EXPECT_EQ(samples[1].name, "a_total");
  EXPECT_EQ(samples[1].labels[0].second, "2");
  EXPECT_EQ(samples[2].name, "b_total");
}

TEST(MetricsExportTest, TextFormatIsPrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("requests_total", {{"svc", "a"}}).inc(3);
  registry.gauge("depth").set(-2);
  auto& h = registry.histogram("rtt_ms", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(99);
  const std::string text = obs::export_text(registry);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{svc=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("depth -2\n"), std::string::npos);
  // Histogram buckets are cumulative in the exposition.
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"20\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_sum 119\n"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_count 3\n"), std::string::npos);
}

TEST(MetricsExportTest, JsonEscapesAndRoundTrips) {
  MetricsRegistry registry;
  registry.counter("total", {{"path", "a\"b\\c"}}).inc();
  const std::string json = obs::export_json(registry);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(FlightRecorderTest, RingIsBoundedAndKeepsNewest) {
  FlightRecorder recorder{4};
  const obs::TraceId br = recorder.intern("br");
  for (int i = 0; i < 10; ++i) {
    recorder.record(TraceType::kPacketHop, i * 100, static_cast<unsigned>(i),
                    br, obs::TraceDetail::kEgress, 1);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: the four newest events in recording order.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(events.back().time, 900);
}

TEST(FlightRecorderTest, InternGivesOneDenseIdPerText) {
  FlightRecorder recorder{4};
  EXPECT_EQ(recorder.intern(""), 0u);  // id 0 is the empty text
  const obs::TraceId a = recorder.intern("br-71-225");
  const obs::TraceId b = recorder.intern("daemon-71-2:0:3b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(recorder.intern(std::string{"br-71-225"}), a);
  EXPECT_EQ(recorder.texts(),
            (std::vector<std::string>{"", "br-71-225", "daemon-71-2:0:3b"}));
}

TEST(FlightRecorderTest, TraceExportCarriesAllFields) {
  FlightRecorder recorder{8};
  recorder.record(TraceType::kScmpEmitted, 42, 7, recorder.intern("br-71-225"),
                  obs::TraceDetail::kText,
                  recorder.intern("external_iface_down"), 0, 5);
  const std::string text = obs::export_trace_text(recorder);
  EXPECT_NE(text.find("scmp_emitted"), std::string::npos);
  EXPECT_NE(text.find("br-71-225"), std::string::npos);
  EXPECT_NE(text.find("external_iface_down"), std::string::npos);
  const std::string json = obs::export_trace_json(recorder);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"time\":42"), std::string::npos);
}

// Golden export: events of every trace type and every detail code,
// rendered as text and as JSON. The expected bytes were taken from the
// recorder that stored each event's subject and detail as strings, so
// the fixed-size records must render exactly what it did. The ring holds
// 29 of the 31 events, so the first two are overwritten and the export
// starts mid-ring.
TEST(FlightRecorderTest, GoldenExportCoversEveryTypeAndDetail) {
  using obs::TraceDetail;
  FlightRecorder r{29};
  // Every subject and text is interned before use, as components do.
  const auto id = [&r](const char* text) { return r.intern(text); };
  const auto ia = [](const char* text) {
    return IsdAs::parse(text)->packed();
  };
  const auto br = id("br-71-225");
  const auto sg_ams = id("kreonet-sg-ams");
  const auto dj = id("daemon-71-2:0:3b");
  const auto uva = id("daemon-71-225");
  const auto cs = id("cs-71-225");
  const auto campaign = id("campaign");
  const auto chaos = id("chaos");
  const auto link = id("link");
  const auto br64 = id("br-64-559");
  r.record(TraceType::kPacketHop, 10, 1, br, TraceDetail::kEgress, 1);
  r.record(TraceType::kPacketHop, 20, 2, br, TraceDetail::kEgress, 2);
  r.record(TraceType::kPacketHop, 1000, 10, br, TraceDetail::kEgress, 3);
  r.record(TraceType::kPacketHop, 1000, 11, id("br-71-2:0:3b"),
           TraceDetail::kEgress, 65535);
  r.record(TraceType::kPacketDrop, 2000, 12, sg_ams,
           TraceDetail::kCutInFlight);
  r.record(TraceType::kPacketDrop, 2000, 13, 0, TraceDetail::kCutInFlight);
  r.record(TraceType::kScmpEmitted, 2100, 14, br, TraceDetail::kText,
           id("external_iface_down"));
  r.record(TraceType::kBeaconOriginated, 0, 0, id("net"),
           TraceDetail::kBeaconingSweep, 0, 0, 1525);
  r.record(TraceType::kBeaconOriginated, 5000000000, 123456789, id("net#2"),
           TraceDetail::kHealingSweep, 0, 0, 1498);
  r.record(TraceType::kPathLookup, 5000000001, 123456790, dj,
           TraceDetail::kLookupHit, ia("71-2:0:5c"));
  r.record(TraceType::kPathLookup, 5000000002, 123456791, uva,
           TraceDetail::kLookupMiss, ia("64-559"));
  r.record(TraceType::kPathLookup, 5000000003, 123456792, cs,
           TraceDetail::kLookupDropped, ia("71-2:0:3b"));
  r.record(TraceType::kPathLookup, 5000000004, 123456793, id("cs-71-2:0:3b"),
           TraceDetail::kLookupHit, ia("71-88"));
  r.record(TraceType::kPathLookup, 5000000005, 123456794, uva,
           TraceDetail::kLookupMiss, ia("0-0"));
  r.record(TraceType::kPathLookup, 5000000006, 123456795, uva,
           TraceDetail::kLookupHit, ia("65535-ffff:ffff:ffff"));
  r.record(TraceType::kPathDown, 6000000000, 200000000, uva,
           TraceDetail::kText,
           id("71-225#2 71-2:0:3b#5 71-2:0:3b#7 64-559#1 "));
  r.record(TraceType::kLinkTransition, 7000000000, 200000001, sg_ams,
           TraceDetail::kLinkDown);
  r.record(TraceType::kLinkTransition, 7000000001, 200000002, sg_ams,
           TraceDetail::kLinkUp);
  r.record(TraceType::kLinkTransition, 7000000002, 200000003, link,
           TraceDetail::kLinkDown);
  r.record(TraceType::kProbeBurst, 0, 0, campaign, TraceDetail::kProbeTick,
           0, 12, 96);
  r.record(TraceType::kProbeBurst, 429000000000, 143, campaign,
           TraceDetail::kProbeTick, 143, 12);
  r.record(TraceType::kChaosInject, 8000000000, 300000000, chaos,
           TraceDetail::kText, id("apply link_flap kreonet-sg-ams"));
  r.record(TraceType::kChaosInject, 8000000001, 300000001, chaos,
           TraceDetail::kText, id("revert region_outage a\"b\\c"));
  r.record(TraceType::kChaosInject, 8000000002, 300000002, br,
           TraceDetail::kRouterCrash);
  r.record(TraceType::kChaosInject, 8000000003, 300000003, cs,
           TraceDetail::kServiceOutage);
  r.record(TraceType::kChaosInject, 8000000004, 300000004, cs,
           TraceDetail::kServiceUp);
  r.record(TraceType::kLookupDegraded, 9000000000, 400000000, dj,
           TraceDetail::kLookupStale, ia("71-2:0:5c"));
  r.record(TraceType::kLookupDegraded, 9000000001, 400000001, dj,
           TraceDetail::kLookupEmpty, ia("64-559"));
  r.record(TraceType::kPacketHop, 9000000002, 400000002, br64,
           TraceDetail::kNone, 0, 0, -7);
  r.record(TraceType::kPacketHop, 9000000003, 400000003, br64);
  r.record(TraceType::kLinkTransition, 9000000004, 400000004, link,
           TraceDetail::kLinkUp, 0, 0, 1);

  EXPECT_EQ(obs::export_trace_text(r),
      R"(# flight recorder: 31 recorded, 2 overwritten, capacity 29)" "\n"
      R"(00000010 t=1000 packet_hop br-71-225 egress=3)" "\n"
      R"(00000011 t=1000 packet_hop br-71-2:0:3b egress=65535)" "\n"
      R"(00000012 t=2000 packet_drop kreonet-sg-ams cut-in-flight)" "\n"
      R"(00000013 t=2000 packet_drop  cut-in-flight)" "\n"
      R"(00000014 t=2100 scmp_emitted br-71-225 external_iface_down)" "\n"
      R"(00000000 t=0 beacon_originated net beaconing sweep v=1525)" "\n"
      R"(123456789 t=5000000000 beacon_originated net#2 healing sweep v=1498)" "\n"
      R"(123456790 t=5000000001 path_lookup daemon-71-2:0:3b 71-2:0:5c hit)" "\n"
      R"(123456791 t=5000000002 path_lookup daemon-71-225 64-559 miss)" "\n"
      R"(123456792 t=5000000003 path_lookup cs-71-225 71-2:0:3b dropped)" "\n"
      R"(123456793 t=5000000004 path_lookup cs-71-2:0:3b 71-88 hit)" "\n"
      R"(123456794 t=5000000005 path_lookup daemon-71-225 0-0 miss)" "\n"
      R"(123456795 t=5000000006 path_lookup daemon-71-225 65535-ffff:ffff:ffff hit)" "\n"
      R"(200000000 t=6000000000 path_down daemon-71-225 71-225#2 71-2:0:3b#5 71-2:0:3b#7 64-559#1 )" "\n"
      R"(200000001 t=7000000000 link_transition kreonet-sg-ams down)" "\n"
      R"(200000002 t=7000000001 link_transition kreonet-sg-ams up)" "\n"
      R"(200000003 t=7000000002 link_transition link down)" "\n"
      R"(00000000 t=0 probe_burst campaign tick=0 pairs=12 v=96)" "\n"
      R"(00000143 t=429000000000 probe_burst campaign tick=143 pairs=12)" "\n"
      R"(300000000 t=8000000000 chaos_inject chaos apply link_flap kreonet-sg-ams)" "\n"
      R"(300000001 t=8000000001 chaos_inject chaos revert region_outage a"b\c)" "\n"
      R"(300000002 t=8000000002 chaos_inject br-71-225 router crash)" "\n"
      R"(300000003 t=8000000003 chaos_inject cs-71-225 service outage)" "\n"
      R"(300000004 t=8000000004 chaos_inject cs-71-225 service up)" "\n"
      R"(400000000 t=9000000000 lookup_degraded daemon-71-2:0:3b 71-2:0:5c stale)" "\n"
      R"(400000001 t=9000000001 lookup_degraded daemon-71-2:0:3b 64-559 empty)" "\n"
      R"(400000002 t=9000000002 packet_hop br-64-559 v=-7)" "\n"
      R"(400000003 t=9000000003 packet_hop br-64-559)" "\n"
      R"(400000004 t=9000000004 link_transition link up v=1)" "\n");
  EXPECT_EQ(obs::export_trace_json(r),
      R"({"recorded":31,"overwritten":2,"events":[{"seq":10,"time":1000,"type":"packet_hop","subject":"br-71-225","detail":"egress=3","value":0},)"
      R"({"seq":11,"time":1000,"type":"packet_hop","subject":"br-71-2:0:3b","detail":"egress=65535","value":0},)"
      R"({"seq":12,"time":2000,"type":"packet_drop","subject":"kreonet-sg-ams","detail":"cut-in-flight","value":0},)"
      R"({"seq":13,"time":2000,"type":"packet_drop","subject":"","detail":"cut-in-flight","value":0},)"
      R"({"seq":14,"time":2100,"type":"scmp_emitted","subject":"br-71-225","detail":"external_iface_down","value":0},)"
      R"({"seq":0,"time":0,"type":"beacon_originated","subject":"net","detail":"beaconing sweep","value":1525},)"
      R"({"seq":123456789,"time":5000000000,"type":"beacon_originated","subject":"net#2","detail":"healing sweep","value":1498},)"
      R"({"seq":123456790,"time":5000000001,"type":"path_lookup","subject":"daemon-71-2:0:3b","detail":"71-2:0:5c hit","value":0},)"
      R"({"seq":123456791,"time":5000000002,"type":"path_lookup","subject":"daemon-71-225","detail":"64-559 miss","value":0},)"
      R"({"seq":123456792,"time":5000000003,"type":"path_lookup","subject":"cs-71-225","detail":"71-2:0:3b dropped","value":0},)"
      R"({"seq":123456793,"time":5000000004,"type":"path_lookup","subject":"cs-71-2:0:3b","detail":"71-88 hit","value":0},)"
      R"({"seq":123456794,"time":5000000005,"type":"path_lookup","subject":"daemon-71-225","detail":"0-0 miss","value":0},)"
      R"({"seq":123456795,"time":5000000006,"type":"path_lookup","subject":"daemon-71-225","detail":"65535-ffff:ffff:ffff hit","value":0},)"
      R"({"seq":200000000,"time":6000000000,"type":"path_down","subject":"daemon-71-225","detail":"71-225#2 71-2:0:3b#5 71-2:0:3b#7 64-559#1 ","value":0},)"
      R"({"seq":200000001,"time":7000000000,"type":"link_transition","subject":"kreonet-sg-ams","detail":"down","value":0},)"
      R"({"seq":200000002,"time":7000000001,"type":"link_transition","subject":"kreonet-sg-ams","detail":"up","value":0},)"
      R"({"seq":200000003,"time":7000000002,"type":"link_transition","subject":"link","detail":"down","value":0},)"
      R"({"seq":0,"time":0,"type":"probe_burst","subject":"campaign","detail":"tick=0 pairs=12","value":96},)"
      R"({"seq":143,"time":429000000000,"type":"probe_burst","subject":"campaign","detail":"tick=143 pairs=12","value":0},)"
      R"({"seq":300000000,"time":8000000000,"type":"chaos_inject","subject":"chaos","detail":"apply link_flap kreonet-sg-ams","value":0},)"
      R"({"seq":300000001,"time":8000000001,"type":"chaos_inject","subject":"chaos","detail":"revert region_outage a\"b\\c","value":0},)"
      R"({"seq":300000002,"time":8000000002,"type":"chaos_inject","subject":"br-71-225","detail":"router crash","value":0},)"
      R"({"seq":300000003,"time":8000000003,"type":"chaos_inject","subject":"cs-71-225","detail":"service outage","value":0},)"
      R"({"seq":300000004,"time":8000000004,"type":"chaos_inject","subject":"cs-71-225","detail":"service up","value":0},)"
      R"({"seq":400000000,"time":9000000000,"type":"lookup_degraded","subject":"daemon-71-2:0:3b","detail":"71-2:0:5c stale","value":0},)"
      R"({"seq":400000001,"time":9000000001,"type":"lookup_degraded","subject":"daemon-71-2:0:3b","detail":"64-559 empty","value":0},)"
      R"({"seq":400000002,"time":9000000002,"type":"packet_hop","subject":"br-64-559","detail":"","value":-7},)"
      R"({"seq":400000003,"time":9000000003,"type":"packet_hop","subject":"br-64-559","detail":"","value":0},)"
      R"({"seq":400000004,"time":9000000004,"type":"link_transition","subject":"link","detail":"up","value":1}]})");
}

// Sends three UDP probes from UVa to OVGU over the first path, running
// the network for a second after each.
void send_probes(controlplane::ScionNetwork& network) {
  endhost::HostStack sender{network, {a::uva(), 0x0A000001}};
  endhost::HostStack receiver{network, {a::ovgu(), 0x0A000002}};
  (void)receiver.bind(4242, [](const dataplane::ScionPacket&,
                               const dataplane::UdpDatagram&, SimTime) {});
  const auto paths = network.paths(a::uva(), a::ovgu());
  ASSERT_FALSE(paths.empty());
  for (int i = 0; i < 3; ++i) {
    dataplane::ScionPacket packet;
    packet.dst = {a::ovgu(), 0x0A000002};
    packet.next_hdr = dataplane::kProtoUdp;
    packet.path = paths.front().dataplane_path;
    dataplane::UdpDatagram datagram;
    datagram.src_port = 9999;
    datagram.dst_port = 4242;
    datagram.data = bytes_of("probe");
    packet.payload = datagram.serialize();
    (void)sender.send(packet);
    network.sim().run_for(kSecond);
  }
}

// The tentpole contract: a seeded scenario exports a byte-identical
// metrics + trace snapshot on replay, and the schedule digest agrees.
// The trace is the network's own; the metrics registry is global, so each
// run resets it — safe here because the scenario constructs (and
// destroys) every registered component within the callback.
TEST(ObsDeterminismTest, SameSeedExportsIdenticalSnapshot) {
  std::vector<std::string> exports;
  const auto scenario = [&]() -> simnet::ScheduleDigest {
    MetricsRegistry::global().reset();
    controlplane::ScionNetwork network{topology::build_sciera()};
    send_probes(network);
    network.set_link_up(network.topology().links().front().label, false);
    network.sim().run_for(kSecond);
    exports.push_back(obs::export_text(MetricsRegistry::global()) +
                      obs::export_trace_text(network.sim().recorder()));
    return network.sim().schedule_digest();
  };
  const auto report = simnet::audit_determinism(scenario);
  EXPECT_TRUE(report.deterministic()) << report.to_string();
  ASSERT_EQ(exports.size(), 2u);
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_NE(exports[0].find("sciera_link_delivered_total"), std::string::npos);
  EXPECT_NE(exports[0].find("link_transition"), std::string::npos);
}

// Each network's simulator owns its trace: building and running a second
// network in the same process, with a link cut, leaves the first
// network's export byte-identical.
TEST(ObsDeterminismTest, EachNetworkTracesOnlyItsOwnRun) {
  controlplane::ScionNetwork first{topology::build_sciera()};
  send_probes(first);
  const std::string before = obs::export_trace_text(first.sim().recorder());
  EXPECT_NE(before.find("packet_hop"), std::string::npos);

  controlplane::ScionNetwork second{topology::build_sciera()};
  const std::string cut = second.topology().links().front().label;
  second.set_link_up(cut, false);
  second.sim().run_for(kSecond);

  EXPECT_EQ(obs::export_trace_text(first.sim().recorder()), before);
  EXPECT_NE(obs::export_trace_text(second.sim().recorder())
                .find("link_transition " + cut + " down"),
            std::string::npos);
}

}  // namespace
}  // namespace sciera
