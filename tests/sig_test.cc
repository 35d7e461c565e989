// SCION-IP Gateway tests: legacy IP hosts communicating transparently
// across continents through paired SIGs (the Edge model of Appendix B).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sig/sig.h"
#include "topology/sciera_net.h"

namespace sciera::sig {
namespace {

namespace a = topology::ases;

controlplane::ScionNetwork& net() {
  static controlplane::ScionNetwork network{topology::build_sciera()};
  return network;
}

TEST(IpPacket, SerializeParseRoundTrip) {
  IpPacket packet;
  packet.src_ip = 0xC0A80001;  // 192.168.0.1
  packet.dst_ip = 0x0A141E28;
  packet.protocol = 6;
  packet.payload = bytes_of("tcp-ish payload");
  const auto parsed = IpPacket::parse(packet.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), packet);
}

TEST(IpPacket, ParseRejectsTruncation) {
  const auto bytes = IpPacket{1, 2, 17, bytes_of("x")}.serialize();
  Bytes cut(bytes.begin(), bytes.begin() + 6);
  EXPECT_FALSE(IpPacket::parse(cut).ok());
}

TEST(IpPrefix, ContainmentSemantics) {
  const IpPrefix net24{0xC0A80100, 24};  // 192.168.1.0/24
  EXPECT_TRUE(net24.contains(0xC0A80101));
  EXPECT_TRUE(net24.contains(0xC0A801FF));
  EXPECT_FALSE(net24.contains(0xC0A80201));
  const IpPrefix host{0xC0A80101, 32};
  EXPECT_TRUE(host.contains(0xC0A80101));
  EXPECT_FALSE(host.contains(0xC0A80102));
  const IpPrefix any{0, 0};
  EXPECT_TRUE(any.contains(0xDEADBEEF));
}

class SigPairFixture : public ::testing::Test {
 protected:
  SigPairFixture()
      : campus_sig_(net(), {a::kaust(), 0x0A000001},
                    [this](const IpPacket& packet, SimTime t) {
                      campus_rx_.emplace_back(packet, t);
                    }),
        hq_sig_(net(), {a::eth(), 0x0A000001},
                [this](const IpPacket& packet, SimTime t) {
                  hq_rx_.emplace_back(packet, t);
                }) {
    // KAUST campus LAN is 10.1.0.0/16, ETH side is 10.2.0.0/16.
    campus_sig_.add_rule(IpPrefix{0x0A020000, 16}, hq_sig_.address());
    hq_sig_.add_rule(IpPrefix{0x0A010000, 16}, campus_sig_.address());
  }

  ScionIpGateway campus_sig_;
  ScionIpGateway hq_sig_;
  std::vector<std::pair<IpPacket, SimTime>> campus_rx_;
  std::vector<std::pair<IpPacket, SimTime>> hq_rx_;
};

TEST_F(SigPairFixture, LegacyHostsCommunicateAcrossContinents) {
  IpPacket packet;
  packet.src_ip = 0x0A010005;  // 10.1.0.5 at KAUST
  packet.dst_ip = 0x0A020009;  // 10.2.0.9 at ETH
  packet.payload = bytes_of("legacy application data");
  const SimTime t0 = net().sim().now();
  ASSERT_TRUE(campus_sig_.send_ip(packet).ok());
  net().sim().run_for(3 * kSecond);
  ASSERT_EQ(hq_rx_.size(), 1u);
  EXPECT_EQ(hq_rx_[0].first, packet);  // byte-identical after the tunnel
  // Jeddah -> Zurich: tens of ms over SCIERA.
  const Duration latency = hq_rx_[0].second - t0;
  EXPECT_GT(to_ms(latency), 10.0);
  EXPECT_LT(to_ms(latency), 400.0);
  EXPECT_EQ(campus_sig_.metrics().encapsulated->value(), 1u);
  EXPECT_EQ(hq_sig_.metrics().decapsulated->value(), 1u);
}

TEST_F(SigPairFixture, BidirectionalFlow) {
  IpPacket request;
  request.src_ip = 0x0A010005;
  request.dst_ip = 0x0A020009;
  request.payload = bytes_of("GET /");
  ASSERT_TRUE(campus_sig_.send_ip(request).ok());
  net().sim().run_for(2 * kSecond);
  ASSERT_EQ(hq_rx_.size(), 1u);
  IpPacket response;
  response.src_ip = hq_rx_[0].first.dst_ip;
  response.dst_ip = hq_rx_[0].first.src_ip;
  response.payload = bytes_of("200 OK");
  ASSERT_TRUE(hq_sig_.send_ip(response).ok());
  net().sim().run_for(2 * kSecond);
  ASSERT_EQ(campus_rx_.size(), 1u);
  EXPECT_EQ(campus_rx_[0].first.payload, bytes_of("200 OK"));
}

TEST_F(SigPairFixture, UnknownDestinationRejected) {
  IpPacket packet;
  packet.src_ip = 0x0A010005;
  packet.dst_ip = 0x08080808;  // no rule
  const auto status = campus_sig_.send_ip(packet);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kNotFound);
  EXPECT_EQ(campus_sig_.metrics().no_rule->value(), 1u);
}

TEST_F(SigPairFixture, FailoverWhenPrimaryLinkDies) {
  // Cut KAUST's KREONET uplink: the tunnel must re-path via GEANT.
  net().set_link_up("kisti-sg-kaust", false);
  IpPacket packet;
  packet.src_ip = 0x0A010005;
  packet.dst_ip = 0x0A020009;
  packet.payload = bytes_of("after failover");
  ASSERT_TRUE(campus_sig_.send_ip(packet).ok());
  net().sim().run_for(3 * kSecond);
  net().set_link_up("kisti-sg-kaust", true);
  ASSERT_EQ(hq_rx_.size(), 1u);
  EXPECT_EQ(hq_rx_[0].first.payload, bytes_of("after failover"));
}

TEST_F(SigPairFixture, TunnelRidesFrontOfUsablePolicyPathsWithLinkDown) {
  // The tunnel takes the front of apply(daemon.paths(dst)) filtered by
  // path_usable. Cut KAUST's GEANT uplink, which the all-up choice
  // crosses, tunnel one packet, and read the links that carried it off
  // their delivery counters.
  endhost::Daemon daemon{net(), a::kaust()};
  const endhost::PathPolicy policy;
  const auto usable_front = [&] {
    auto paths = policy.apply(daemon.paths(a::eth()));
    std::erase_if(paths, [](const controlplane::Path& path) {
      return !net().path_usable(path);
    });
    return paths;
  };
  const auto delivered = [] {
    std::vector<std::uint64_t> counts;
    for (const auto& link : net().topology().links()) {
      counts.push_back(net().link(link.id)->metrics().delivered->value());
    }
    return counts;
  };
  const auto all_up = usable_front();
  ASSERT_FALSE(all_up.empty());
  const topology::LinkId uplink =
      net().topology().find_link_by_label("geant-kaust")->id;
  const auto& up_links = all_up.front().links;
  ASSERT_NE(std::find(up_links.begin(), up_links.end(), uplink),
            up_links.end());

  net().set_link_up("geant-kaust", false);
  const auto with_cut = usable_front();
  const auto before = delivered();
  IpPacket packet;
  packet.src_ip = 0x0A010005;
  packet.dst_ip = 0x0A020009;
  packet.payload = bytes_of("around the cut");
  const Status sent = campus_sig_.send_ip(packet);
  net().sim().run_for(3 * kSecond);
  net().set_link_up("geant-kaust", true);

  ASSERT_TRUE(sent.ok());
  ASSERT_FALSE(with_cut.empty());
  ASSERT_EQ(hq_rx_.size(), 1u);
  const auto after = delivered();
  std::set<topology::LinkId> carried;
  for (topology::LinkId id = 0; id < after.size(); ++id) {
    if (after[id] > before[id]) carried.insert(id);
  }
  const auto& expected = with_cut.front().links;
  EXPECT_EQ(carried,
            std::set<topology::LinkId>(expected.begin(), expected.end()));
  EXPECT_EQ(carried.count(uplink), 0u);
}

TEST_F(SigPairFixture, GeofencingPolicyBlocksTunnel) {
  // Forbid ISD 64 entirely: ETH (64-2:0:9) becomes unreachable for the
  // tunnel, so the SIG reports it rather than violating the policy.
  campus_sig_.set_policy(endhost::geofence_policy({64}));
  IpPacket packet;
  packet.src_ip = 0x0A010005;
  packet.dst_ip = 0x0A020009;
  const auto status = campus_sig_.send_ip(packet);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kUnreachable);
}

}  // namespace
}  // namespace sciera::sig
