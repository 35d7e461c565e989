// End-host stack tests: hint discovery (Table 2), bootstrapping with
// signature verification, the three PAN library modes with automatic
// fallback, the drop-in socket, path policies (geofencing, green routing,
// no-commercial-transit), the dispatcher bottleneck, Hercules planning,
// and LightningFilter authentication.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "endhost/bootstrapper.h"
#include "endhost/hercules.h"
#include "endhost/hints.h"
#include "endhost/lightning_filter.h"
#include "endhost/pan.h"
#include "obs/metrics.h"
#include "topology/sciera_net.h"

namespace sciera::endhost {
namespace {

namespace a = topology::ases;
using controlplane::ScionNetwork;

ScionNetwork& shared_net() {
  static ScionNetwork network{topology::build_sciera()};
  return network;
}

std::unique_ptr<BootstrapServer> make_server(ScionNetwork& net, IsdAs ia) {
  const auto* creds = net.pki(ia.isd())->credentials(ia);
  std::vector<cppki::Trc> trcs{net.pki(ia.isd())->trc()};
  return std::make_unique<BootstrapServer>(
      ia, local_topology_view(net.topology(), ia), *creds, trcs);
}

// --- Hint discovery -----------------------------------------------------------

TEST(Hints, Table2AvailabilityMatrix) {
  // Column "dyn. DHCP leases": DHCP mechanisms Y, DNS M, mDNS M.
  NetworkEnvironment dhcp_only;
  dhcp_only.dhcp_leases = true;
  dhcp_only.local_dns_search_domain = false;
  dhcp_only.mdns_responder_present = false;
  EXPECT_TRUE(mechanism_available(HintMechanism::kDhcpVivo, dhcp_only));
  EXPECT_FALSE(mechanism_available(HintMechanism::kDnsSrv, dhcp_only));
  EXPECT_FALSE(mechanism_available(HintMechanism::kDhcpv6Vsio, dhcp_only));

  // Column "Static IPs only": only mDNS remains viable.
  NetworkEnvironment static_net;
  static_net.static_ips_only = true;
  static_net.dhcp_leases = false;
  static_net.local_dns_search_domain = false;
  static_net.mdns_responder_present = true;
  EXPECT_FALSE(mechanism_available(HintMechanism::kDhcpVivo, static_net));
  EXPECT_TRUE(mechanism_available(HintMechanism::kMdns, static_net));

  // Column "DNS search domain": all DNS mechanisms available.
  NetworkEnvironment dns_net;
  dns_net.dhcp_leases = false;
  dns_net.local_dns_search_domain = true;
  for (auto m : {HintMechanism::kDnsSrv, HintMechanism::kDnsNaptr,
                 HintMechanism::kDnsSd}) {
    EXPECT_TRUE(mechanism_available(m, dns_net));
  }

  // IPv6 NDP needs RAs and DNS.
  NetworkEnvironment v6;
  v6.ipv6_ras = true;
  EXPECT_TRUE(mechanism_available(HintMechanism::kIpv6Ndp, v6));
  v6.ipv6_ras = false;
  EXPECT_FALSE(mechanism_available(HintMechanism::kIpv6Ndp, v6));
}

TEST(Hints, LatencySamplesArePositiveAndOsOrdered) {
  NetworkEnvironment env;
  Rng rng{7};
  double win = 0, lin = 0;
  for (int i = 0; i < 200; ++i) {
    win += to_ms(sample_hint_latency(HintMechanism::kDhcpVivo, env,
                                     windows_profile(), rng));
    lin += to_ms(sample_hint_latency(HintMechanism::kDhcpVivo, env,
                                     linux_profile(), rng));
  }
  EXPECT_GT(lin, 0);
  EXPECT_GT(win, lin);  // Windows service indirection costs more
}

TEST(Hints, MdnsSlowestDhcpFast) {
  NetworkEnvironment env;
  env.mdns_responder_present = true;
  Rng rng{8};
  double dhcp = 0, mdns = 0;
  for (int i = 0; i < 200; ++i) {
    dhcp += to_ms(sample_hint_latency(HintMechanism::kDhcpVivo, env,
                                      linux_profile(), rng));
    mdns += to_ms(sample_hint_latency(HintMechanism::kMdns, env,
                                      linux_profile(), rng));
  }
  EXPECT_GT(mdns, dhcp);
}

// --- Bootstrapping --------------------------------------------------------------

TEST(Bootstrap, FullRunVerifiesAndParses) {
  auto& net = shared_net();
  const auto server = make_server(net, a::ovgu());
  Bootstrapper bootstrapper{NetworkEnvironment{}, linux_profile()};
  Rng rng{3};
  auto result = bootstrapper.run(*server, rng, net.sim().now());
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->local_ia, a::ovgu());
  EXPECT_NE(result->local_topology.find_as(a::ovgu()), nullptr);
  EXPECT_NE(result->local_topology.find_as(a::geant()), nullptr);
  EXPECT_NE(result->trust_store.latest(71), nullptr);
  EXPECT_GT(result->timings.hint_retrieval, 0);
  EXPECT_GT(result->timings.config_retrieval, 0);
  // "median < 150ms" scale: a single run lands well under a second.
  EXPECT_LT(to_ms(result->timings.total()), 1000.0);
}

TEST(Bootstrap, OutOfBandTrcAnchor) {
  auto& net = shared_net();
  const auto server = make_server(net, a::sidn());
  const cppki::Trc oob = net.pki(71)->trc();
  Bootstrapper bootstrapper{NetworkEnvironment{}, macos_profile()};
  Rng rng{4};
  auto result = bootstrapper.run(*server, rng, net.sim().now(), &oob);
  ASSERT_TRUE(result.ok());
}

TEST(Bootstrap, TamperedTopologyRejected) {
  auto& net = shared_net();
  auto server = make_server(net, a::sidn());
  // A rogue bootstrapping server (the rogue-DHCP analogue of Section
  // 4.1.1) serves a modified topology without a valid signature.
  const auto* creds = net.pki(71)->credentials(a::sidn());
  std::vector<cppki::Trc> trcs{net.pki(71)->trc()};
  BootstrapServer rogue{a::sidn(),
                        local_topology_view(net.topology(), a::uva()),
                        *creds, trcs};
  SignedTopology bad = rogue.topology();
  bad.topology_text += "\n# malicious edit";
  cppki::TrustStore store;
  ASSERT_TRUE(store.anchor(net.pki(71)->trc()).ok());
  EXPECT_FALSE(verify_signed_topology(bad, store, net.sim().now()).ok());
}

TEST(Bootstrap, FailsWhenNoMechanismAvailable) {
  auto& net = shared_net();
  const auto server = make_server(net, a::sidn());
  NetworkEnvironment dead;
  dead.static_ips_only = true;
  dead.dhcp_leases = false;
  dead.local_dns_search_domain = false;
  dead.mdns_responder_present = false;
  Bootstrapper bootstrapper{dead, linux_profile()};
  Rng rng{5};
  auto result = bootstrapper.run(*server, rng, net.sim().now());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kUnreachable);
}

// --- PAN modes -------------------------------------------------------------------

TEST(Pan, DaemonModeSelectedWhenDaemonPresent) {
  auto& net = shared_net();
  Daemon daemon{net, a::uva()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010101})
                 .daemon(daemon)
                 .build(Rng{1});
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ((*ctx)->mode(), StackMode::kDaemonDependent);
  EXPECT_EQ((*ctx)->bootstrap_time(), 0);
  EXPECT_FALSE((*ctx)->paths(a::ufms()).empty());
}

TEST(Pan, BootstrapperModeWhenStatePresent) {
  auto& net = shared_net();
  const auto server = make_server(net, a::uva());
  Bootstrapper bootstrapper{NetworkEnvironment{}, linux_profile()};
  Rng rng{6};
  auto boot = bootstrapper.run(*server, rng, net.sim().now());
  ASSERT_TRUE(boot.ok());
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010102})
                 .bootstrapper_state(boot.value())
                 .build(Rng{2});
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ((*ctx)->mode(), StackMode::kBootstrapperDependent);
}

TEST(Pan, StandaloneModeBootstrapsItself) {
  auto& net = shared_net();
  const auto server = make_server(net, a::uva());
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010103})
                 .bootstrap_server(*server)
                 .build(Rng{3});
  ASSERT_TRUE(ctx.ok()) << ctx.error().to_string();
  EXPECT_EQ((*ctx)->mode(), StackMode::kStandalone);
  EXPECT_GT((*ctx)->bootstrap_time(), 0);
  // Network change: standalone must re-bootstrap (cost > 0).
  Rng rng{9};
  auto cost = (*ctx)->handle_network_change(rng);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost.value(), 0);
}

TEST(Pan, StandaloneWithoutServerFails) {
  auto& net = shared_net();
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010104})
                 .build(Rng{4});
  EXPECT_FALSE(ctx.ok());
}

TEST(Pan, BuilderRejectsMissingNetwork) {
  auto ctx = PanContext::Builder{}.address({a::uva(), 1}).build(Rng{5});
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.error().code, Errc::kInvalidArgument);
}

TEST(Pan, BuilderRejectsAddressOutsideTopology) {
  auto& net = shared_net();
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({IsdAs{99, As{0xDEAD}}, 1})
                 .build(Rng{5});
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.error().code, Errc::kInvalidArgument);
}

TEST(Pan, BuilderRejectsDaemonForOtherAs) {
  auto& net = shared_net();
  Daemon daemon{net, a::ovgu()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010105})
                 .daemon(daemon)
                 .build(Rng{6});
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.error().code, Errc::kInvalidArgument);
}

// --- Drop-in socket over the real network ------------------------------------------

TEST(Pan, SocketSendsAndReceivesAcrossAtlantic) {
  auto& net = shared_net();
  Daemon d_uva{net, a::uva()};
  Daemon d_ovgu{net, a::ovgu()};
  auto ctx_a = PanContext::Builder{}
                   .net(net)
                   .address({a::uva(), 0x0A020201})
                   .daemon(d_uva)
                   .build(Rng{10});
  auto ctx_b = PanContext::Builder{}
                   .net(net)
                   .address({a::ovgu(), 0x0A020202})
                   .daemon(d_ovgu)
                   .build(Rng{11});
  ASSERT_TRUE(ctx_a.ok());
  ASSERT_TRUE(ctx_b.ok());

  // Echo server at OVGU.
  std::vector<Bytes> server_rx;
  PanSocket* server_sock_raw = nullptr;
  auto server_sock = PanSocket::open(
      **ctx_b, 8888,
      [&](const dataplane::Address& src, std::uint16_t src_port,
          const Bytes& data, SimTime) {
        server_rx.push_back(data);
        (void)server_sock_raw->send_to(src, src_port, data);  // echo
      });
  ASSERT_TRUE(server_sock.ok());
  server_sock_raw = server_sock->get();

  std::vector<Bytes> client_rx;
  std::vector<SimTime> rx_times;
  auto client_sock = PanSocket::open(
      **ctx_a, 0,
      [&](const dataplane::Address&, std::uint16_t, const Bytes& data,
          SimTime t) {
        client_rx.push_back(data);
        rx_times.push_back(t);
      });
  ASSERT_TRUE(client_sock.ok());

  const SimTime t0 = net.sim().now();
  ASSERT_TRUE((*client_sock)
                  ->send_to({a::ovgu(), 0x0A020202}, 8888,
                            bytes_of("hello sciera"))
                  .ok());
  net.sim().run_for(5 * kSecond);
  ASSERT_EQ(server_rx.size(), 1u);
  ASSERT_EQ(client_rx.size(), 1u);
  EXPECT_EQ(client_rx[0], bytes_of("hello sciera"));
  const Duration rtt = rx_times[0] - t0;
  // Transatlantic round trip: tens of ms, under a second.
  EXPECT_GT(to_ms(rtt), 40.0);
  EXPECT_LT(to_ms(rtt), 500.0);
}

TEST(Pan, InteractivePathSelectionPins) {
  auto& net = shared_net();
  Daemon daemon{net, a::kisti_dj()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::kisti_dj(), 0x0A030301})
                 .daemon(daemon)
                 .build(Rng{12});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());
  const auto options = (*ctx)->paths(a::kisti_sg());
  ASSERT_GE(options.size(), 2u);
  ASSERT_TRUE((*sock)->select_path(a::kisti_sg(), 1).ok());
  auto current = (*sock)->current_path(a::kisti_sg());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->fingerprint(), options[1].fingerprint());
  EXPECT_FALSE((*sock)->select_path(a::kisti_sg(), 10'000).ok());
  (*sock)->clear_selection(a::kisti_sg());
  auto after = (*sock)->current_path(a::kisti_sg());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->fingerprint(), options[0].fingerprint());
}

// Regression: a path pinned via select_path survived its own down report —
// pinned_ was never invalidated, so the moment the link flapped back up the
// socket silently returned to the reported-down path, overriding the
// quarantine the report had just installed.
TEST(Pan, DownReportUnpinsSelectedPath) {
  auto& net = shared_net();
  Daemon daemon{net, a::kisti_dj()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::kisti_dj(), 0x0A030302})
                 .daemon(daemon)
                 .build(Rng{13});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());
  const auto options = (*ctx)->paths(a::kisti_sg());
  ASSERT_GE(options.size(), 2u);
  ASSERT_TRUE((*sock)->select_path(a::kisti_sg(), 1).ok());
  const std::string pinned_fp = options[1].fingerprint();

  (*ctx)->report_path_down(pinned_fp);
  // The pin is gone: even after the quarantine penalty expires (when the
  // path is offered again), the socket does not snap back to it.
  net.sim().run_for(Daemon::Config{}.down_path_penalty);
  auto current = (*sock)->current_path(a::kisti_sg());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->fingerprint(), options[0].fingerprint());
}

// --- Send receipts ----------------------------------------------------------------

TEST(Pan, SendReceiptReportsPathAndBytes) {
  auto& net = shared_net();
  Daemon daemon{net, a::uva()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A040401})
                 .daemon(daemon)
                 .build(Rng{14});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());

  auto receipt = (*sock)->send_to({a::ovgu(), 0x0A040402}, 9999,
                                  bytes_of("receipt me"));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->mode, StackMode::kDaemonDependent);
  EXPECT_FALSE(receipt->failover);
  EXPECT_GT(receipt->bytes_queued, 10u);  // headers + payload
  auto current = (*sock)->current_path(a::ovgu());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(receipt->path_fingerprint, current->fingerprint());

  // Intra-AS sends take the empty path: no fingerprint.
  auto local = (*sock)->send_to({a::uva(), 0x0A040403}, 9999, bytes_of("hi"));
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local->path_fingerprint.empty());
  net.sim().run_all();
}

TEST(Pan, SendReceiptFlagsFailoverOffPinnedPath) {
  auto& net = shared_net();
  Daemon daemon{net, a::kisti_dj()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::kisti_dj(), 0x0A040404})
                 .daemon(daemon)
                 .build(Rng{15});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());
  const auto options = (*ctx)->paths(a::kisti_sg());
  ASSERT_GE(options.size(), 2u);
  ASSERT_TRUE((*sock)->select_path(a::kisti_sg(), 0).ok());

  // Pinned path up: receipt carries its fingerprint, no failover.
  const dataplane::Address peer{a::kisti_sg(), 0x0A040405};
  auto pinned_send = (*sock)->send_to(peer, 7000, bytes_of("a"));
  ASSERT_TRUE(pinned_send.ok());
  EXPECT_EQ(pinned_send->path_fingerprint, options[0].fingerprint());
  EXPECT_FALSE(pinned_send->failover);

  // Cut a link unique to the pinned path (so an alternative stays usable):
  // the next send substitutes and says so.
  topology::LinkId unique_link = options[0].links.front();
  for (const auto& link_id : options[0].links) {
    if (std::find(options[1].links.begin(), options[1].links.end(), link_id) ==
        options[1].links.end()) {
      unique_link = link_id;
      break;
    }
  }
  simnet::Link* cut = net.link(unique_link);
  ASSERT_NE(cut, nullptr);
  cut->set_up(false);
  auto failover_send = (*sock)->send_to(peer, 7000, bytes_of("b"));
  ASSERT_TRUE(failover_send.ok());
  EXPECT_TRUE(failover_send->failover);
  EXPECT_NE(failover_send->path_fingerprint, options[0].fingerprint());
  cut->set_up(true);
  net.sim().run_all();
}

// A socket ranks a destination's set once. It re-ranks only when the
// lookup hands back a different set object or set_policy replaces the
// policy, and each time it picks the front of apply() over that set.
TEST(Pan, SocketReRanksOnlyForANewSetOrPolicy) {
  ScionNetwork net{topology::build_sciera()};
  Daemon daemon{net, a::uva()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A040407})
                 .daemon(daemon)
                 .build(Rng{16});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());
  const IsdAs dst = a::korea_univ();
  const auto picked = [&] {
    const auto path = (*sock)->current_path(dst);
    EXPECT_TRUE(path.ok());
    return path.ok() ? path->fingerprint() : std::string{};
  };
  const auto front = [&](const PathPolicy& policy) {
    return policy.apply(*daemon.path_set(dst)).front().fingerprint();
  };
  const PathPolicy latency = lowest_latency_policy();

  EXPECT_EQ(picked(), front(latency));
  EXPECT_EQ((*sock)->rankings_built(), 1u);
  EXPECT_EQ(picked(), front(latency));
  EXPECT_EQ((*sock)->rankings_built(), 1u);

  // The daemon refetches, and the control service answers from its cache:
  // the same set object, so no re-rank.
  const controlplane::PathSet first_set = daemon.path_set(dst);
  daemon.flush_cache();
  EXPECT_EQ(picked(), front(latency));
  EXPECT_EQ(daemon.path_set(dst).get(), first_set.get());
  EXPECT_EQ((*sock)->rankings_built(), 1u);

  // Both caches flushed: the control service combines a new set object.
  net.control_service_set(a::uva())->flush_caches();
  daemon.flush_cache();
  EXPECT_EQ(picked(), front(latency));
  EXPECT_NE(daemon.path_set(dst).get(), first_set.get());
  EXPECT_EQ((*sock)->rankings_built(), 2u);

  // A new policy that denies an AS of the latency front which some other
  // path avoids: re-ranked under it, so the pick moves.
  const auto current = (*sock)->current_path(dst);
  ASSERT_TRUE(current.ok());
  PathPolicy detour = lowest_latency_policy();
  for (const IsdAs transit : current->as_sequence) {
    detour.deny_ases = {transit};
    if (!detour.apply(*daemon.path_set(dst)).empty()) break;
  }
  ASSERT_FALSE(detour.apply(*daemon.path_set(dst)).empty());
  (*sock)->set_policy(detour);
  EXPECT_NE(front(detour), front(latency));
  EXPECT_EQ(picked(), front(detour));
  EXPECT_EQ((*sock)->rankings_built(), 3u);
}

// --- Daemon cache and path liveness ------------------------------------------

// Regression: the daemon used to treat an entry aged exactly
// path_cache_ttl as fresh (`age > ttl` to expire) while the control
// service already treated it as stale — the two stacks disagreed at the
// boundary. Unified convention: stale at age >= ttl.
TEST(Daemon, CacheEntryAgedExactlyTtlIsStale) {
  auto& net = shared_net();
  Daemon daemon{net, a::uva()};
  (void)daemon.paths(a::ovgu());
  EXPECT_EQ(daemon.metrics().cache_misses->value(), 1u);
  (void)daemon.paths(a::ovgu());
  EXPECT_EQ(daemon.metrics().cache_hits->value(), 1u);
  EXPECT_EQ(daemon.metrics().lookups->value(), 2u);
  // Advance the sim clock by exactly the TTL: no longer a hit.
  net.sim().run_for(Daemon::Config{}.path_cache_ttl);
  (void)daemon.paths(a::ovgu());
  EXPECT_EQ(daemon.metrics().cache_misses->value(), 2u);
  EXPECT_EQ(daemon.metrics().cache_hits->value(), 1u);
}

// The benchmark's traced run reads endhost.lookup_timeouts and
// endhost.lookup_retries from these two registry families on every soak.
// Nothing counts into them, since every lookup is synchronous, but each
// daemon still registers both under its instance label: without them the
// benchmark's output line lacks two of the metrics it declares.
TEST(Daemon, RegistersBenchmarkLookupFamiliesAtZero) {
  auto& net = shared_net();
  const auto by_daemon = [](std::string_view family) {
    std::map<std::string, std::uint64_t> values;
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::global().snapshot()) {
      if (sample.name != family) continue;
      for (const auto& [key, value] : sample.labels) {
        if (key == "daemon") values[value] = sample.counter_value;
      }
    }
    return values;
  };
  const auto before = by_daemon("sciera_daemon_lookups_total");
  Daemon daemon{net, a::uva()};
  (void)daemon.paths(a::ovgu());
  std::string label;
  for (const auto& [name, lookups] : by_daemon("sciera_daemon_lookups_total")) {
    if (!before.contains(name)) {
      label = name;
      EXPECT_EQ(lookups, 1u);
    }
  }
  ASSERT_FALSE(label.empty());
  for (const char* family : {"sciera_daemon_lookup_timeouts_total",
                             "sciera_daemon_lookup_retries_total"}) {
    const auto values = by_daemon(family);
    const auto it = values.find(label);
    ASSERT_NE(it, values.end()) << family;
    EXPECT_EQ(it->second, 0u) << family;
  }
}

// Regression: down_until_ grew without bound — every SCMP report left an
// entry behind forever. Expired entries are pruned on lookups and reports.
TEST(Daemon, QuarantineMapIsPrunedAndBounded) {
  auto& net = shared_net();
  Daemon daemon{net, a::uva()};
  for (int i = 0; i < 100; ++i) {
    daemon.report_path_down("fp-" + std::to_string(i));
  }
  EXPECT_EQ(daemon.quarantined(), 100u);
  net.sim().run_for(Daemon::Config{}.down_path_penalty);
  // The next report prunes all 100 expired entries before inserting.
  daemon.report_path_down("fp-fresh");
  EXPECT_EQ(daemon.quarantined(), 1u);
  // And lookups prune too: once fp-fresh expires the map is empty.
  net.sim().run_for(Daemon::Config{}.down_path_penalty);
  (void)daemon.paths(a::ovgu());
  EXPECT_EQ(daemon.quarantined(), 0u);
}

// Regression: a standalone context's private liveness table was never
// pruned. Every down report stayed forever, and every later lookup
// searched the expired entries. Lookups and reports now prune it, as the
// daemon prunes its own.
TEST(Pan, StandaloneQuarantineIsPrunedOnLookup) {
  auto& net = shared_net();
  const auto server = make_server(net, a::uva());
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A010104})
                 .bootstrap_server(*server)
                 .build(Rng{4});
  ASSERT_TRUE(ctx.ok()) << ctx.error().to_string();
  ASSERT_EQ((*ctx)->mode(), StackMode::kStandalone);
  const auto paths = (*ctx)->paths(a::ovgu());
  ASSERT_GE(paths.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    (*ctx)->report_path_down(paths[i].fingerprint());
  }
  EXPECT_EQ((*ctx)->quarantined(), 3u);
  EXPECT_EQ((*ctx)->paths(a::ovgu()).size(), paths.size() - 3);
  net.sim().run_for(91 * kSecond);
  (void)(*ctx)->paths(a::ovgu());
  EXPECT_EQ((*ctx)->quarantined(), 0u);
}

// End-to-end failover: a mid-path link dies, the border router answers
// the next packet with SCMP ExternalInterfaceDown, the daemon quarantines
// the path (excluded from paths()), and it reappears once
// down_path_penalty elapses on the sim clock.
TEST(Pan, ScmpFailoverQuarantinesPathAndRecovers) {
  auto& net = shared_net();
  Daemon daemon{net, a::uva()};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address({a::uva(), 0x0A020210})
                 .daemon(daemon)
                 .build(Rng{20});
  ASSERT_TRUE(ctx.ok());
  auto sock = PanSocket::open(**ctx, 0, [](auto&&...) {});
  ASSERT_TRUE(sock.ok());

  const auto first = (*sock)->current_path(a::ovgu());
  ASSERT_TRUE(first.ok());
  const std::string fp = first->fingerprint();
  ASSERT_GT(first->links.size(), 1u);

  // The data-plane feedback loop: SCMP errors quarantine the active path.
  int scmp_errors = 0;
  (*ctx)->stack().set_scmp_receiver(
      [&](const dataplane::ScionPacket&, const dataplane::ScmpMessage& m,
          SimTime) {
        if (m.is_error()) {
          ++scmp_errors;
          (*ctx)->report_path_down(fp);
        }
      });

  // Cut the path's second link; the packet sent just before the cut
  // reaches the failed egress just after and triggers the SCMP error.
  simnet::Link* cut = net.link(first->links[1]);
  ASSERT_NE(cut, nullptr);
  net.sim().schedule_after(10 * kMillisecond, [cut] { cut->set_up(false); });
  net.sim().schedule_after(9500 * kMicrosecond, [&] {
    (void)(*sock)->send_to({a::ovgu(), 0x0A020211}, 8888, bytes_of("probe"));
  });
  net.sim().run_for(3 * kSecond);
  EXPECT_EQ(scmp_errors, 1);
  EXPECT_EQ(daemon.quarantined(), 1u);

  // paths() excludes the quarantined fingerprint; failover picks another.
  for (const auto& path : daemon.paths(a::ovgu())) {
    EXPECT_NE(path.fingerprint(), fp);
  }
  const auto failover = (*sock)->current_path(a::ovgu());
  ASSERT_TRUE(failover.ok());
  EXPECT_NE(failover->fingerprint(), fp);

  // The circuit heals and the penalty elapses: the path reappears.
  cut->set_up(true);
  net.sim().run_for(Daemon::Config{}.down_path_penalty);
  bool reappeared = false;
  for (const auto& path : daemon.paths(a::ovgu())) {
    reappeared = reappeared || path.fingerprint() == fp;
  }
  EXPECT_TRUE(reappeared);
  EXPECT_EQ(daemon.quarantined(), 0u);
}

// --- Policies -----------------------------------------------------------------------

TEST(Policy, GeofencingExcludesIsd) {
  auto& net = shared_net();
  auto paths = net.paths(a::ovgu(), a::sidn());
  ASSERT_FALSE(paths.empty());
  auto fenced = geofence_policy({64}).apply(paths);
  for (const auto& path : fenced) {
    for (IsdAs ia : path.as_sequence) EXPECT_NE(ia.isd(), 64);
  }
}

TEST(Policy, CommercialTransitForbidden) {
  // Build a synthetic path crossing ISD 64 in the middle and check the
  // Section 4.9 rule rejects it while endpoint use is allowed.
  auto& net = shared_net();
  PathPolicy policy;
  policy.forbid_commercial_transit = true;
  auto to_eth = net.paths(a::ovgu(), a::eth());  // terminates in ISD 64: OK
  ASSERT_FALSE(to_eth.empty());
  EXPECT_TRUE(policy.admits(to_eth.front()));
  controlplane::Path transit = to_eth.front();
  transit.as_sequence.push_back(a::eth());  // fake: now ISD-64 is interior
  transit.as_sequence.push_back(a::ovgu());
  std::rotate(transit.as_sequence.rbegin(), transit.as_sequence.rbegin() + 2,
              transit.as_sequence.rend());
  // Simpler: construct explicitly.
  transit.as_sequence = {a::ovgu(), a::switch64(), a::uva()};
  EXPECT_FALSE(policy.admits(transit));
}

TEST(Policy, GreenRoutingPrefersCleanGrids) {
  auto& net = shared_net();
  auto paths = net.paths(a::uva(), a::ufms());
  ASSERT_GE(paths.size(), 2u);
  const auto green = green_policy().apply(paths);
  const auto fast = lowest_latency_policy().apply(paths);
  ASSERT_FALSE(green.empty());
  const CarbonMap carbon = CarbonMap::sciera_defaults();
  EXPECT_LE(path_carbon_score(green.front(), carbon),
            path_carbon_score(fast.front(), carbon));
  // Ordering is actually sorted by carbon.
  for (std::size_t i = 1; i < green.size(); ++i) {
    EXPECT_LE(path_carbon_score(green[i - 1], carbon),
              path_carbon_score(green[i], carbon) + 1e-9);
  }
}

TEST(Policy, MaxHopsAndDenyLists) {
  auto& net = shared_net();
  auto paths = net.paths(a::uva(), a::ufms());
  PathPolicy policy;
  policy.max_hops = 4;
  for (const auto& path : policy.apply(paths)) {
    EXPECT_LE(path.as_sequence.size(), 4u);
  }
  PathPolicy deny;
  deny.deny_ases = {a::bridges()};
  for (const auto& path : deny.apply(paths)) {
    for (IsdAs ia : path.as_sequence) EXPECT_NE(ia, a::bridges());
  }
  PathPolicy require;
  require.require_ases = {a::geant()};
  const auto required = require.apply(paths);
  ASSERT_FALSE(required.empty());
  for (const auto& path : required) {
    EXPECT_NE(std::find(path.as_sequence.begin(), path.as_sequence.end(),
                        a::geant()),
              path.as_sequence.end());
  }
}

// A send takes the first path of its set's ranking that passes its
// predicates (PathSelector::first over rank()). Over every ordered pair of
// SCIERA ASes, under each policy, with every link up and again with the
// KREONET ring cut, that is the same path as the front of apply()
// filtered by path_usable, and nullptr exactly when that list is empty.
TEST(Policy, BestIsFrontOfUsableApplyForEveryPairAndPolicy) {
  ScionNetwork net{topology::build_sciera()};
  const auto usable = [&net](const controlplane::Path& path) {
    return net.path_usable(path);
  };
  PathPolicy disjoint;
  disjoint.preference = {PathPolicy::Preference::kDisjointness,
                         PathPolicy::Preference::kLatency};
  std::vector<PathPolicy> policies = {lowest_latency_policy(),
                                      fewest_hops_policy(), green_policy(),
                                      geofence_policy({64}), disjoint};
  std::size_t chosen = 0;
  std::size_t none = 0;
  std::size_t front_unusable = 0;
  for (const bool ring_cut : {false, true}) {
    for (const char* label :
         {"kreonet-ams-chg", "kreonet-chg-stl", "kreonet-stl-dj",
          "kreonet-dj-hk", "kreonet-hk-sg", "kreonet-sg-ams"}) {
      net.set_link_up(label, !ring_cut);
    }
    for (const auto& src : net.topology().ases()) {
      for (const auto& dst : net.topology().ases()) {
        const auto paths = net.paths(src.ia, dst.ia);
        const std::string where = src.ia.to_string() + " -> " +
                                  dst.ia.to_string() +
                                  (ring_cut ? " (ring cut)" : "");
        // Most disjoint from the pair's first combined path.
        policies.back().disjoint_reference.reset();
        if (!paths.empty()) policies.back().disjoint_reference = paths.front();
        const controlplane::PathSet set =
            std::make_shared<const std::vector<controlplane::Path>>(paths);
        for (const PathPolicy& policy : policies) {
          auto sorted = policy.apply(paths);
          if (!sorted.empty() && !usable(sorted.front())) ++front_unusable;
          std::erase_if(sorted, [&usable](const controlplane::Path& path) {
            return !usable(path);
          });
          PathSelector selector;
          selector.set_policy(policy);
          const controlplane::Path* best = selector.first(dst.ia, set, usable);
          if (sorted.empty()) {
            EXPECT_EQ(best, nullptr) << where;
            ++none;
            continue;
          }
          ASSERT_NE(best, nullptr) << where;
          EXPECT_EQ(best->fingerprint(), sorted.front().fingerprint())
              << where;
          ++chosen;
        }
      }
    }
  }
  // Both outcomes occur, and the cut makes some policies' fronts unusable.
  EXPECT_GT(chosen, 0u);
  EXPECT_GT(none, 0u);
  EXPECT_GT(front_unusable, 0u);
}

// --- Dispatcher bottleneck (Section 4.8) ----------------------------------------------

TEST(Dispatcher, SharedQueueDropsUnderLoad) {
  auto& net = shared_net();
  HostStack::Config cfg;
  cfg.mode = HostMode::kDispatcher;
  cfg.dispatcher_pps = 1000;  // tiny on purpose
  cfg.dispatcher_queue = 16;
  HostStack stack{net, {a::uva(), 0x0A040401}, cfg};
  int received = 0;
  ASSERT_TRUE(stack.bind(5000, [&](auto&&...) { ++received; }).ok());
  // Blast 500 local packets within one instant.
  for (int i = 0; i < 500; ++i) {
    dataplane::ScionPacket pkt;
    pkt.path_type = dataplane::PathType::kEmpty;
    pkt.dst = {a::uva(), 0x0A040401};
    pkt.src = {a::uva(), 0x0A040402};
    dataplane::UdpDatagram dg;
    dg.dst_port = 5000;
    dg.data = bytes_of("x");
    pkt.payload = dg.serialize();
    ASSERT_TRUE(net.send_from_host(pkt).ok());
  }
  net.sim().run_for(10 * kSecond);
  EXPECT_GT(stack.metrics().dropped_overload->value(), 0u);
  EXPECT_LT(received, 500);
  EXPECT_EQ(static_cast<std::uint64_t>(received),
            stack.metrics().delivered->value());
}

TEST(Dispatcher, DispatcherlessHandlesSameLoad) {
  auto& net = shared_net();
  HostStack::Config cfg;
  cfg.mode = HostMode::kDispatcherless;
  HostStack stack{net, {a::uva(), 0x0A040403}, cfg};
  int received = 0;
  ASSERT_TRUE(stack.bind(5000, [&](auto&&...) { ++received; }).ok());
  for (int i = 0; i < 500; ++i) {
    dataplane::ScionPacket pkt;
    pkt.path_type = dataplane::PathType::kEmpty;
    pkt.dst = {a::uva(), 0x0A040403};
    pkt.src = {a::uva(), 0x0A040404};
    dataplane::UdpDatagram dg;
    dg.dst_port = 5000;
    dg.data = bytes_of("x");
    pkt.payload = dg.serialize();
    ASSERT_TRUE(net.send_from_host(pkt).ok());
  }
  net.sim().run_for(10 * kSecond);
  EXPECT_EQ(received, 500);
  EXPECT_EQ(stack.metrics().dropped_overload->value(), 0u);
}

TEST(Dispatcher, PortManagement) {
  auto& net = shared_net();
  HostStack stack{net, {a::uva(), 0x0A040405}};
  auto p1 = stack.bind(7000, [](auto&&...) {});
  ASSERT_TRUE(p1.ok());
  EXPECT_FALSE(stack.bind(7000, [](auto&&...) {}).ok());  // taken
  auto eph1 = stack.bind(0, [](auto&&...) {});
  auto eph2 = stack.bind(0, [](auto&&...) {});
  ASSERT_TRUE(eph1.ok());
  ASSERT_TRUE(eph2.ok());
  EXPECT_NE(eph1.value(), eph2.value());
  stack.unbind(7000);
  EXPECT_TRUE(stack.bind(7000, [](auto&&...) {}).ok());
}

// Deliveries a host stack has scheduled toward a socket stay valid when
// the socket and its whole PAN context are destroyed first: the receiver
// sees every datagram, with the same contents and at the same times, as
// when the context stays up. A scheduled delivery that reached back into
// the destroyed stack would read freed memory (ASan runs this suite).
struct Seen {
  dataplane::Address src;
  std::uint16_t src_port = 0;
  Bytes data;
  SimTime at = 0;
  friend bool operator==(const Seen&, const Seen&) = default;
};

TEST(Dispatcher, PendingDeliveriesOutliveTheirStack) {
  const auto run = [](bool destroy_early) {
    ScionNetwork net{topology::build_sciera()};
    Daemon daemon{net, a::uva()};
    const dataplane::Address host{a::uva(), 0x0A040408};
    std::vector<Seen> seen;
    auto ctx = PanContext::Builder{}
                   .net(net)
                   .address(host)
                   .daemon(daemon)
                   .build(Rng{18})
                   .value();
    auto sock = PanSocket::open(*ctx, 9000,
                                [&seen](const dataplane::Address& src,
                                        std::uint16_t src_port,
                                        const Bytes& data, SimTime at) {
                                  seen.push_back({src, src_port, data, at});
                                })
                    .value();
    for (std::uint8_t i = 0; i < 8; ++i) {
      dataplane::ScionPacket pkt;
      pkt.path_type = dataplane::PathType::kEmpty;
      pkt.dst = host;
      pkt.src = {a::uva(), 0x0A040409};
      dataplane::UdpDatagram dg;
      dg.src_port = static_cast<std::uint16_t>(4000 + i);
      dg.dst_port = 9000;
      dg.data.assign(16 + i, i);
      pkt.payload = dg.serialize();
      EXPECT_TRUE(net.send_from_host(pkt).ok());
    }
    // Past the 300 us intra-AS hop: every datagram has reached the host
    // stack, and its 30 us hop to the socket is still pending.
    net.sim().run_for(310 * kMicrosecond);
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(net.sim().pending_events(), 8u);
    if (destroy_early) {
      sock.reset();
      ctx.reset();
    }
    net.sim().run_for(kSecond);
    return seen;
  };
  const std::vector<Seen> kept = run(false);
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.back().data, Bytes(23, 7));
  EXPECT_EQ(run(true), kept);
}

// Ephemeral ports come from 32768-65535 and never wrap into the
// well-known range. With that range exhausted, bind(0) fails instead of
// spinning, and a freed port is handed out again.
TEST(Dispatcher, EphemeralPortsStayInRangeAndExhaustCleanly) {
  auto& net = shared_net();
  HostStack stack{net, {a::uva(), 0x0A040406}};
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 32768; ++i) {
    const auto port = stack.bind(0, [](auto&&...) {});
    ASSERT_TRUE(port.ok()) << i;
    ASSERT_GE(port.value(), 32768) << i;
    ASSERT_TRUE(seen.insert(port.value()).second) << port.value();
  }
  const auto exhausted = stack.bind(0, [](auto&&...) {});
  ASSERT_FALSE(exhausted.ok()) << "got port " << exhausted.value();
  EXPECT_EQ(exhausted.error().code, Errc::kResourceExhausted);
  stack.unbind(40000);
  const auto reused = stack.bind(0, [](auto&&...) {});
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value(), 40000);
}

// --- Hercules ---------------------------------------------------------------------------

TEST(Hercules, MultipathBeatsSinglePath) {
  auto& net = shared_net();
  auto paths = net.paths(a::kisti_dj(), a::kisti_ams());
  ASSERT_GE(paths.size(), 2u);
  HerculesConfig cfg;
  cfg.use_xdp = true;
  Hercules hercules{net.topology(), cfg};
  const auto single = hercules.plan({paths[0]}, 1'000'000'000);
  // Pick disjoint paths for aggregation.
  std::vector<controlplane::Path> chosen{paths[0]};
  for (const auto& path : paths) {
    if (path_disjointness(path, paths[0]) == 1.0) {
      chosen.push_back(path);
      break;
    }
  }
  ASSERT_GE(chosen.size(), 2u) << "need a disjoint path pair";
  const auto multi = hercules.plan(chosen, 1'000'000'000);
  EXPECT_GT(multi.aggregate_bps, single.aggregate_bps * 1.5);
  EXPECT_LT(multi.transfer_time, single.transfer_time);
}

TEST(Hercules, DispatcherCapsThroughput) {
  auto& net = shared_net();
  auto paths = net.paths(a::kisti_dj(), a::kisti_ams());
  ASSERT_FALSE(paths.empty());
  HerculesConfig via_dispatcher;
  via_dispatcher.receiver_mode = HostMode::kDispatcher;
  via_dispatcher.use_xdp = false;
  HerculesConfig via_xdp;
  via_xdp.use_xdp = true;
  Hercules slow{net.topology(), via_dispatcher};
  Hercules fast{net.topology(), via_xdp};
  const auto r_slow = slow.plan({paths[0]}, 10'000'000'000ULL);
  const auto r_fast = fast.plan({paths[0]}, 10'000'000'000ULL);
  // The dispatcher pins the transfer to single-core pps ("performance hit
  // a wall"), XDP restores multi-Gbps.
  EXPECT_LT(r_slow.aggregate_bps, 4e9);
  EXPECT_GT(r_fast.aggregate_bps, 3 * r_slow.aggregate_bps);
}

TEST(Hercules, SharedLinksNotDoubleCounted) {
  auto& net = shared_net();
  auto paths = net.paths(a::sec(), a::nus());
  ASSERT_FALSE(paths.empty());
  // Same path twice: the shared links must cap the total at one path's
  // bandwidth, not double it.
  HerculesConfig cfg;
  cfg.use_xdp = true;
  Hercules hercules{net.topology(), cfg};
  const auto once = hercules.plan({paths[0]}, 1'000'000);
  const auto twice = hercules.plan({paths[0], paths[0]}, 1'000'000);
  EXPECT_NEAR(twice.network_limit_bps, once.network_limit_bps,
              once.network_limit_bps * 0.01);
}

// The Section 4.8 receive-side and filter models, pinned exactly: the
// dispatcher caps a 1,200-byte-payload transfer at one core's 250 kpps,
// the dispatcherless stack and XDP both reach the 100 Gb/s NIC, and the
// filter's per-core check rate scales over 8 cores with RSS.
TEST(Hercules, Section48ModelOutputs) {
  auto& net = shared_net();
  const auto host_limit = [&](HostMode mode, bool xdp) {
    HerculesConfig cfg;
    cfg.receiver_mode = mode;
    cfg.use_xdp = xdp;
    return Hercules{net.topology(), cfg}.plan({}, 0).host_limit_bps;
  };
  EXPECT_EQ(host_limit(HostMode::kDispatcher, false), 2.6e9);
  EXPECT_EQ(host_limit(HostMode::kDispatcherless, false), 100e9);
  EXPECT_EQ(host_limit(HostMode::kDispatcher, true), 100e9);
  const LightningFilter filter{bytes_of("s")};
  EXPECT_EQ(filter.throughput_bps(1500, /*rss=*/false), 36e9);
  EXPECT_EQ(filter.throughput_bps(1500, /*rss=*/true), 288e9);
}

// --- LightningFilter -----------------------------------------------------------------------

TEST(LightningFilter, AuthenticatedTrafficAccepted) {
  LightningFilter filter{bytes_of("dmz-secret")};
  dataplane::ScionPacket pkt;
  pkt.src = {a::kisti_dj(), 1};
  pkt.dst = {a::kisti_ams(), 2};
  pkt.path_type = dataplane::PathType::kEmpty;
  Bytes payload = bytes_of("science data");
  const Bytes tag = filter.make_authenticator(pkt.src.ia, payload);
  pkt.payload = payload;
  pkt.payload.insert(pkt.payload.end(), tag.begin(), tag.end());
  EXPECT_EQ(filter.check(pkt, 0), LightningFilter::Verdict::kAccept);
  EXPECT_EQ(filter.metrics().accepted->value(), 1u);
}

TEST(LightningFilter, ForgedAuthenticatorDropped) {
  LightningFilter filter{bytes_of("dmz-secret")};
  dataplane::ScionPacket pkt;
  pkt.src = {a::kisti_dj(), 1};
  Bytes payload = bytes_of("science data");
  Bytes tag = filter.make_authenticator(pkt.src.ia, payload);
  tag[0] ^= 1;
  pkt.payload = payload;
  pkt.payload.insert(pkt.payload.end(), tag.begin(), tag.end());
  EXPECT_EQ(filter.check(pkt, 0), LightningFilter::Verdict::kDropAuth);
  // A different source AS's key must not validate either.
  LightningFilter filter2{bytes_of("dmz-secret")};
  Bytes tag2 = filter2.make_authenticator(a::uva(), payload);
  pkt.payload = payload;
  pkt.payload.insert(pkt.payload.end(), tag2.begin(), tag2.end());
  EXPECT_EQ(filter2.check(pkt, 0), LightningFilter::Verdict::kDropAuth);
}

TEST(LightningFilter, AllowListEnforced) {
  LightningFilter::Config cfg;
  cfg.allowed_sources = {a::kisti_dj()};
  cfg.require_auth = false;
  LightningFilter filter{bytes_of("s"), cfg};
  dataplane::ScionPacket ok;
  ok.src = {a::kisti_dj(), 1};
  dataplane::ScionPacket bad;
  bad.src = {a::uva(), 1};
  EXPECT_EQ(filter.check(ok, 0), LightningFilter::Verdict::kAccept);
  EXPECT_EQ(filter.check(bad, 0), LightningFilter::Verdict::kDropRule);
}

TEST(LightningFilter, RateLimitKicksIn) {
  LightningFilter::Config cfg;
  cfg.require_auth = false;
  cfg.rate_pps = 10;
  cfg.burst = 5;
  LightningFilter filter{bytes_of("s"), cfg};
  dataplane::ScionPacket pkt;
  pkt.src = {a::uva(), 1};
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    if (filter.check(pkt, kSecond) == LightningFilter::Verdict::kAccept) {
      ++accepted;
    }
  }
  EXPECT_LE(accepted, 11);
  EXPECT_GT(filter.metrics().dropped_rate->value(), 0u);
  // After a pause the bucket refills.
  EXPECT_EQ(filter.check(pkt, 10 * kSecond),
            LightningFilter::Verdict::kAccept);
}

TEST(LightningFilter, RssScalesThroughput) {
  LightningFilter filter{bytes_of("s")};
  const double single = filter.throughput_bps(1500, /*rss=*/false);
  const double rss = filter.throughput_bps(1500, /*rss=*/true);
  EXPECT_NEAR(rss / single, 8.0, 0.01);  // default 8 cores
  EXPECT_GT(rss, 100e9);  // line rate at 100G+ (the paper's figure)
}

// The PR 7 router regression, at the host boundary: the per-source CMAC
// context is derived once at admission, and the steady-state check path
// runs zero key schedules (the counter is exact, not sampled).
TEST(LightningFilter, SteadyStateChecksRunZeroKeySchedules) {
  LightningFilter filter{bytes_of("dmz-secret")};
  const IsdAs src = a::kisti_dj();
  const Bytes payload = bytes_of("bulk science data");
  const Bytes tag = filter.make_authenticator(src, payload);
  Bytes wire = payload;
  wire.insert(wire.end(), tag.begin(), tag.end());
  // First packet admits the source (one key schedule, off the books).
  ASSERT_EQ(filter.check(src, wire, 0), LightningFilter::Verdict::kAccept);
  const auto before = crypto::Aes128::key_schedules_run();
  for (int i = 1; i <= 200; ++i) {
    ASSERT_EQ(filter.check(src, wire, i * kMillisecond),
              LightningFilter::Verdict::kAccept);
  }
  EXPECT_EQ(crypto::Aes128::key_schedules_run(), before);
}

// Spoofed-source floods fabricate ASes to exhaust per-source state: the
// table is capped, overflow is shed before any key derivation, and idle
// residue is reclaimed so real sources get back in.
TEST(LightningFilter, BoundedSourceTableOverflowsThenReclaims) {
  LightningFilter::Config cfg;
  cfg.require_auth = false;
  cfg.max_sources = 2;
  cfg.idle_timeout = kSecond;
  LightningFilter filter{bytes_of("s"), cfg};
  const Bytes none;
  EXPECT_EQ(filter.check(a::uva(), none, 0),
            LightningFilter::Verdict::kAccept);
  EXPECT_EQ(filter.check(a::geant(), none, 0),
            LightningFilter::Verdict::kAccept);
  EXPECT_EQ(filter.source_count(), 2u);
  // Table full of live sources: the next fabricated AS is shed, and no
  // key schedule ran for it.
  const auto schedules = crypto::Aes128::key_schedules_run();
  EXPECT_EQ(filter.check(a::princeton(), none, 100 * kMillisecond),
            LightningFilter::Verdict::kDropOverflow);
  EXPECT_EQ(crypto::Aes128::key_schedules_run(), schedules);
  EXPECT_EQ(filter.metrics().dropped_overflow->value(), 1u);
  EXPECT_EQ(filter.source_count(), 2u);
  // Once the residents go idle the same source is admitted via reclaim.
  EXPECT_EQ(filter.check(a::princeton(), none, 2 * kSecond),
            LightningFilter::Verdict::kAccept);
  EXPECT_LE(filter.source_count(), cfg.max_sources);
}

// Reclamation evicts never-authenticated residue before authenticated
// sources: after a spoofed squatter is pushed out, the paying customer's
// cached context survives (no fresh key schedule on its next packet).
TEST(LightningFilter, ReclaimEvictsNeverAuthenticatedFirst) {
  LightningFilter::Config cfg;
  cfg.max_sources = 2;
  cfg.idle_timeout = kSecond;
  LightningFilter filter{bytes_of("s"), cfg};
  const Bytes payload = bytes_of("x");
  const Bytes tag = filter.make_authenticator(a::uva(), payload);
  Bytes wire = payload;
  wire.insert(wire.end(), tag.begin(), tag.end());
  ASSERT_EQ(filter.check(a::uva(), wire, 0),
            LightningFilter::Verdict::kAccept);  // authenticated resident
  ASSERT_EQ(filter.check(a::geant(), payload, 0),
            LightningFilter::Verdict::kDropAuth);  // admitted, never valid
  ASSERT_EQ(filter.source_count(), 2u);
  // Both idle now; the new source's admission must evict the squatter.
  ASSERT_EQ(filter.check(a::princeton(), payload, 2 * kSecond),
            LightningFilter::Verdict::kDropAuth);
  const auto schedules = crypto::Aes128::key_schedules_run();
  EXPECT_EQ(filter.check(a::uva(), wire, 2 * kSecond + kMillisecond),
            LightningFilter::Verdict::kAccept);
  EXPECT_EQ(crypto::Aes128::key_schedules_run(), schedules);
}

// The filter against a model that walks its whole table whenever a new
// source meets a full one: reclaim's rule without the bound on the
// earliest idle time. A seeded run: 200 sources (half the checks from a
// hot dozen), a 16-entry table, the rate limit on, half the authenticators
// valid, and a clock that mostly rises but sometimes steps back. Verdicts
// and table sizes must agree after every check.
TEST(LightningFilter, ReclaimBoundMatchesAFullWalkModel) {
  using Verdict = LightningFilter::Verdict;
  LightningFilter::Config cfg;
  cfg.max_sources = 16;
  cfg.idle_timeout = 50 * kMillisecond;
  cfg.rate_pps = 5;
  cfg.burst = 2;
  const Bytes secret = bytes_of("model-secret");
  LightningFilter filter{secret, cfg};

  struct Source {
    IsdAs ia;
    Bytes valid;
    Bytes forged;
  };
  std::vector<Source> sources;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const IsdAs ia{static_cast<Isd>(60 + i % 7), As{1000 + i}};
    const Bytes payload = bytes_of("payload");
    Bytes valid = payload;
    const Bytes tag = LightningSealer{secret, ia}.seal(payload);
    valid.insert(valid.end(), tag.begin(), tag.end());
    Bytes forged = valid;
    forged.back() ^= 1;
    sources.push_back(Source{ia, valid, forged});
  }

  struct Entry {
    IsdAs ia;
    double tokens = 0;
    SimTime bucket_last = 0;
    SimTime last_seen = 0;
    bool authenticated = false;
  };
  std::vector<Entry> table;
  const auto model_reclaim = [&](SimTime now) {
    for (const bool authenticated_too : {false, true}) {
      const std::size_t before = table.size();
      std::erase_if(table, [&](const Entry& e) {
        return e.last_seen + cfg.idle_timeout <= now &&
               (authenticated_too || !e.authenticated);
      });
      if (table.size() != before) return true;
    }
    return false;
  };
  const auto model_check = [&](IsdAs ia, bool valid, SimTime now) {
    auto it = std::find_if(table.begin(), table.end(),
                           [&](const Entry& e) { return e.ia == ia; });
    if (it != table.end()) {
      it->last_seen = now;
    } else {
      if (table.size() >= cfg.max_sources && !model_reclaim(now)) {
        return Verdict::kDropOverflow;
      }
      table.push_back(Entry{ia, 0, 0, now, false});
      it = table.end() - 1;
    }
    if (!valid) return Verdict::kDropAuth;
    it->authenticated = true;
    const double elapsed = static_cast<double>(now - it->bucket_last) /
                           static_cast<double>(kSecond);
    it->tokens = std::min(cfg.burst, it->tokens + elapsed * cfg.rate_pps);
    it->bucket_last = now;
    if (it->tokens < 1.0) return Verdict::kDropRate;
    it->tokens -= 1.0;
    return Verdict::kAccept;
  };

  Rng rng{29};
  SimTime now = 0;
  std::map<Verdict, int> seen;
  for (int i = 0; i < 4000; ++i) {
    if (rng.chance(0.05)) {
      now = std::max<SimTime>(
          0, now - static_cast<SimTime>(rng.next_below(40)) * kMillisecond);
    } else {
      now += static_cast<SimTime>(rng.next_below(5000)) * kMicrosecond;
    }
    const std::size_t pick =
        rng.chance(0.5) ? rng.next_below(12) : rng.next_below(200);
    const bool valid = rng.chance(0.5);
    const Source& src = sources[pick];
    const Verdict expected = model_check(src.ia, valid, now);
    ASSERT_EQ(filter.check(src.ia, valid ? src.valid : src.forged, now),
              expected)
        << "check " << i;
    ASSERT_EQ(filter.source_count(), table.size()) << "check " << i;
    ++seen[expected];
  }
  // The run reached every verdict the model has.
  for (const Verdict v : {Verdict::kAccept, Verdict::kDropAuth,
                          Verdict::kDropRate, Verdict::kDropOverflow}) {
    EXPECT_GT(seen[v], 0) << static_cast<int>(v);
  }
}

// The sender-side sealer and the filter derive the same per-source key
// from the shared secret — a sealed payload passes the in-path check.
TEST(LightningFilter, SealerMatchesFilterAuthenticator) {
  const Bytes secret = bytes_of("dmz-secret");
  LightningFilter filter{secret};
  const LightningSealer sealer{secret, a::kisti_dj()};
  EXPECT_EQ(sealer.source(), a::kisti_dj());
  const Bytes payload = bytes_of("science data");
  const Bytes tag = sealer.seal(payload);
  EXPECT_EQ(tag, filter.make_authenticator(a::kisti_dj(), payload));
  Bytes wire = payload;
  wire.insert(wire.end(), tag.begin(), tag.end());
  EXPECT_EQ(filter.check(a::kisti_dj(), wire, 0),
            LightningFilter::Verdict::kAccept);
  // Sealed under the wrong secret, the same wire format is rejected.
  const LightningSealer wrong{bytes_of("other-secret"), a::kisti_dj()};
  Bytes forged = payload;
  const Bytes bad = wrong.seal(payload);
  forged.insert(forged.end(), bad.begin(), bad.end());
  EXPECT_EQ(filter.check(a::kisti_dj(), forged, kMillisecond),
            LightningFilter::Verdict::kDropAuth);
}

}  // namespace
}  // namespace sciera::endhost
