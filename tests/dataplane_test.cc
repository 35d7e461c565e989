#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataplane/hopfield.h"
#include "dataplane/packet.h"
#include "dataplane/scmp.h"
#include "obs/metrics.h"

namespace sciera::dataplane {
namespace {

ScionPath sample_path() {
  ScionPath path;
  path.info = {InfoField{false, false, 0x1234, 1700000000},
               InfoField{true, false, 0x9999, 1700000100}};
  path.seg_len = {2, 3, 0};
  for (int i = 0; i < 5; ++i) {
    HopField hop;
    hop.exp_time = static_cast<std::uint8_t>(100 + i);
    hop.cons_ingress = static_cast<IfaceId>(i);
    hop.cons_egress = static_cast<IfaceId>(i + 10);
    hop.mac = {1, 2, 3, 4, 5, static_cast<std::uint8_t>(i)};
    path.hops.push_back(hop);
  }
  return path;
}

ScionPacket sample_packet() {
  ScionPacket pkt;
  pkt.traffic_class = 7;
  pkt.flow_id = 0xABCDE;
  pkt.next_hdr = kProtoUdp;
  pkt.dst = Address{IsdAs::parse("71-2:0:5c").value(), 0x0A000001};
  pkt.src = Address{IsdAs::parse("71-225").value(), 0x0A000002};
  pkt.path = sample_path();
  pkt.payload = bytes_of("payload-bytes");
  return pkt;
}

TEST(Packet, SerializeParseRoundTrip) {
  const ScionPacket pkt = sample_packet();
  const auto bytes = pkt.serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.error().to_string();
  const auto parsed = ScionPacket::parse(bytes.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value(), pkt);
}

TEST(Packet, WireSizeMatchesSerialization) {
  const ScionPacket pkt = sample_packet();
  const auto bytes = pkt.serialize();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), pkt.wire_size());
}

TEST(Packet, ParseRejectsTruncation) {
  const auto bytes = sample_packet().serialize().value();
  for (std::size_t cut : {1ul, 8ul, 20ul, 40ul, bytes.size() - 1}) {
    auto truncated = Bytes(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ScionPacket::parse(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Packet, ParseRejectsTrailingGarbage) {
  auto bytes = sample_packet().serialize().value();
  bytes.push_back(0xAA);
  EXPECT_FALSE(ScionPacket::parse(bytes).ok());
}

TEST(Packet, EmptyPathPacketRoundTrips) {
  ScionPacket pkt = sample_packet();
  pkt.path_type = PathType::kEmpty;
  pkt.path = {};
  const auto bytes = pkt.serialize();
  ASSERT_TRUE(bytes.ok());
  const auto parsed = ScionPacket::parse(bytes.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), pkt);
}

TEST(Packet, SerializeIntoMatchesSerializeAndReplacesContents) {
  const ScionPacket pkt = sample_packet();
  Bytes out = bytes_of("stale bytes from the buffer's previous life");
  ASSERT_TRUE(pkt.serialize_into(out).ok());
  EXPECT_EQ(out, pkt.serialize().value());
  // Round again into the same (now larger-capacity) buffer: identical.
  const auto first = out;
  ASSERT_TRUE(pkt.serialize_into(out).ok());
  EXPECT_EQ(out, first);
}

TEST(Packet, ParseIntoMatchesParseAcrossReusedScratch) {
  // The batched router parses every packet of a batch into the same
  // scratch ScionPacket; whatever the previous packet left behind must
  // never leak into the next parse.
  ScionPacket scratch;
  const ScionPacket big = sample_packet();
  ASSERT_TRUE(
      ScionPacket::parse_into(big.serialize().value(), scratch).ok());
  EXPECT_EQ(scratch, big);

  ScionPacket small = sample_packet();
  small.flow_id = 0x11111;
  small.payload = bytes_of("x");  // shorter than big's payload
  ASSERT_TRUE(
      ScionPacket::parse_into(small.serialize().value(), scratch).ok());
  EXPECT_EQ(scratch, small);

  // Empty-path packet after a full-path one: the stale 5-hop path must
  // be cleared, not merely overwritten.
  ScionPacket empty = sample_packet();
  empty.path_type = PathType::kEmpty;
  empty.path = {};
  ASSERT_TRUE(
      ScionPacket::parse_into(empty.serialize().value(), scratch).ok());
  EXPECT_EQ(scratch, empty);
}

TEST(Packet, ParseIntoRejectsWhatParseRejects) {
  const auto bytes = sample_packet().serialize().value();
  ScionPacket scratch;
  for (std::size_t cut : {1ul, 8ul, 20ul, 40ul, bytes.size() - 1}) {
    Bytes truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ScionPacket::parse_into(truncated, scratch).ok())
        << "cut=" << cut;
  }
  Bytes trailing = bytes;
  trailing.push_back(0xAA);
  EXPECT_FALSE(ScionPacket::parse_into(trailing, scratch).ok());
  // The scratch still works after error paths left it unspecified.
  ASSERT_TRUE(ScionPacket::parse_into(bytes, scratch).ok());
  EXPECT_EQ(scratch, sample_packet());
}

TEST(Packet, ValidateCatchesBadSegLens) {
  ScionPath path = sample_path();
  path.seg_len = {2, 2, 0};  // sum != hops
  EXPECT_FALSE(path.validate().ok());
  path = sample_path();
  path.seg_len = {5, 0, 0};  // second segment missing but info present
  EXPECT_FALSE(path.validate().ok());
  path = sample_path();
  path.info.clear();
  EXPECT_FALSE(path.validate().ok());
}

TEST(Path, AdvanceWalksSegments) {
  ScionPath path = sample_path();
  EXPECT_EQ(path.curr_inf, 0);
  EXPECT_FALSE(path.at_segment_end());
  path.advance();  // hop 1, last of segment 0
  EXPECT_EQ(path.curr_inf, 0);
  EXPECT_TRUE(path.at_segment_end());
  path.advance();  // hop 2, first of segment 1
  EXPECT_EQ(path.curr_inf, 1);
  path.advance();
  path.advance();  // hop 4, last
  EXPECT_TRUE(path.at_segment_end());
  EXPECT_FALSE(path.at_end());
  path.advance();
  EXPECT_TRUE(path.at_end());
}

TEST(Path, ReversedFlipsEverything) {
  const ScionPath path = sample_path();
  const ScionPath rev = path.reversed();
  EXPECT_EQ(rev.info.size(), 2u);
  EXPECT_EQ(rev.info[0].construction_dir, false);  // was segment 1, C=1
  EXPECT_EQ(rev.info[1].construction_dir, true);   // was segment 0, C=0
  EXPECT_EQ(rev.seg_len[0], 3);
  EXPECT_EQ(rev.seg_len[1], 2);
  EXPECT_EQ(rev.hops.front(), path.hops.back());
  EXPECT_EQ(rev.hops.back(), path.hops.front());
  // Reversing twice restores the hop order.
  const ScionPath twice = rev.reversed();
  EXPECT_EQ(twice.hops, path.hops);
}

TEST(HopMac, ComputeVerifyRoundTrip) {
  const FwdKey key = derive_fwd_key(bytes_of("master-secret"));
  HopField hop;
  hop.exp_time = 63;
  hop.cons_ingress = 3;
  hop.cons_egress = 9;
  hop.mac = compute_hop_mac(key, 0xBEEF, 1700000000, hop);
  EXPECT_TRUE(verify_hop_mac(key, 0xBEEF, 1700000000, hop));
  EXPECT_FALSE(verify_hop_mac(key, 0xBEEE, 1700000000, hop));
  EXPECT_FALSE(verify_hop_mac(key, 0xBEEF, 1700000001, hop));
  HopField tampered = hop;
  tampered.cons_egress = 10;
  EXPECT_FALSE(verify_hop_mac(key, 0xBEEF, 1700000000, tampered));
}

TEST(HopMac, DifferentKeysDifferentMacs) {
  const FwdKey k1 = derive_fwd_key(bytes_of("as-one"));
  const FwdKey k2 = derive_fwd_key(bytes_of("as-two"));
  HopField hop;
  hop.mac = compute_hop_mac(k1, 1, 1, hop);
  EXPECT_FALSE(verify_hop_mac(k2, 1, 1, hop));
}

TEST(HopMac, ChainBetaIsInvolutive) {
  Rng rng{3};
  for (int i = 0; i < 100; ++i) {
    const auto beta = static_cast<std::uint16_t>(rng.next_u64());
    Mac6 mac;
    for (auto& b : mac) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(chain_beta(chain_beta(beta, mac), mac), beta);
  }
}

TEST(HopMac, ExpiryRespectsExpTime)
{
  HopField hop;
  hop.exp_time = 0;  // (0+1)*24h/256 = 337.5s
  EXPECT_FALSE(hop_expired(hop, 1000, 1000 + 300));
  EXPECT_TRUE(hop_expired(hop, 1000, 1000 + 400));
  hop.exp_time = 255;  // full 24h
  EXPECT_FALSE(hop_expired(hop, 1000, 1000 + 86000));
  EXPECT_TRUE(hop_expired(hop, 1000, 1000 + 86500));
}

// --- HopVerifier (cached per-key MAC context) ------------------------------

HopField verifier_hop(IfaceId in, IfaceId out) {
  HopField hop;
  hop.exp_time = 63;
  hop.cons_ingress = in;
  hop.cons_egress = out;
  return hop;
}

// A verifier's hit and miss cells, from a registry of the test's own.
struct CacheCells {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("hits");
  obs::Counter& misses = registry.counter("misses");
};

TEST(HopVerifier, MatchesFreeFunctionsAndPerPacketMode) {
  // Three paths to the same function — the MAC-cached verifier, the
  // uncached one that runs the CMAC on every packet, and the free
  // functions' context cache — must agree bit for bit on every MAC.
  const FwdKey key = derive_fwd_key(bytes_of("verifier-equivalence"));
  CacheCells cells;
  HopVerifier cached{key, cells.hits, cells.misses};
  HopVerifier uncached{key, {.cache_entries = 0}, cells.hits, cells.misses};
  Rng rng{0x600D, "verifier"};
  for (int i = 0; i < 64; ++i) {
    const auto beta = static_cast<std::uint16_t>(rng.next_u64());
    const auto ts = static_cast<std::uint32_t>(rng.next_u64());
    const auto hop = verifier_hop(static_cast<IfaceId>(i), IfaceId{2});
    const Mac6 mac = cached.compute(beta, ts, hop);
    EXPECT_EQ(mac, uncached.compute(beta, ts, hop));
    EXPECT_EQ(mac, compute_hop_mac(key, beta, ts, hop));
    auto stamped = hop;
    stamped.mac = mac;
    EXPECT_TRUE(cached.verify(beta, ts, stamped));
  }
}

TEST(HopVerifier, OneKeySchedulePerKeyNotPerPacket) {
  // The regression this PR fixed: MAC-ing N packets used to run N AES
  // key schedules. A verifier runs exactly one (at construction) no
  // matter how many packets it processes.
  const FwdKey key = derive_fwd_key(bytes_of("one-schedule-per-key"));
  CacheCells cells;
  const auto before = crypto::Aes128::key_schedules_run();
  HopVerifier verifier{key, cells.hits, cells.misses};
  const auto constructed = crypto::Aes128::key_schedules_run();
  EXPECT_EQ(constructed - before, 1u);
  for (int i = 0; i < 128; ++i) {
    (void)verifier.compute(static_cast<std::uint16_t>(i), 1700000000,
                           verifier_hop(IfaceId{1}, IfaceId{2}));
  }
  EXPECT_EQ(crypto::Aes128::key_schedules_run(), constructed);
}

TEST(HopVerifier, MacCacheHitsRepeatedBlocks) {
  const FwdKey key = derive_fwd_key(bytes_of("cache-hit-counting"));
  CacheCells cells;
  HopVerifier verifier{key, {.cache_entries = 16}, cells.hits, cells.misses};
  const auto hop = verifier_hop(IfaceId{3}, IfaceId{9});
  const Mac6 cold = verifier.compute(0xBEEF, 1700000000, hop);
  EXPECT_EQ(cells.hits.value(), 0u);
  EXPECT_EQ(cells.misses.value(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(verifier.compute(0xBEEF, 1700000000, hop), cold);
  }
  EXPECT_EQ(cells.hits.value(), 5u);
  EXPECT_EQ(cells.misses.value(), 1u);
}

TEST(HopVerifier, RekeyInvalidatesCacheAndChangesMacs) {
  const FwdKey k1 = derive_fwd_key(bytes_of("rollover-epoch-1"));
  const FwdKey k2 = derive_fwd_key(bytes_of("rollover-epoch-2"));
  CacheCells cells;
  HopVerifier verifier{k1, cells.hits, cells.misses};
  const auto hop = verifier_hop(IfaceId{1}, IfaceId{2});
  const Mac6 old_mac = verifier.compute(0x1234, 1700000000, hop);
  (void)verifier.compute(0x1234, 1700000000, hop);  // now cached
  EXPECT_EQ(cells.hits.value(), 1u);

  verifier.rekey(k2);
  EXPECT_EQ(verifier.key(), k2);
  // Same input block, new key: a stale cache entry would replay old_mac.
  const Mac6 new_mac = verifier.compute(0x1234, 1700000000, hop);
  EXPECT_NE(new_mac, old_mac);
  EXPECT_EQ(new_mac, compute_hop_mac(k2, 0x1234, 1700000000, hop));
  // The lookup after rekey() must have been a miss, not a poisoned hit.
  EXPECT_EQ(cells.hits.value(), 1u);
  auto stamped = hop;
  stamped.mac = old_mac;
  EXPECT_FALSE(verifier.verify(0x1234, 1700000000, stamped));
}

TEST(HopVerifier, SingleSlotCacheEvictsDeterministically) {
  // cache_entries = 1: every distinct input block maps to slot 0, so
  // alternating two blocks evicts on every call (all misses), while a
  // repeated block stays resident (all hits). Eviction is pure
  // overwrite — bounded, clock-free, identical across runs.
  const FwdKey key = derive_fwd_key(bytes_of("single-slot-eviction"));
  CacheCells cells;
  HopVerifier verifier{key, {.cache_entries = 1}, cells.hits, cells.misses};
  const auto hop_a = verifier_hop(IfaceId{1}, IfaceId{2});
  const auto hop_b = verifier_hop(IfaceId{7}, IfaceId{8});
  const Mac6 mac_a = verifier.compute(1, 1700000000, hop_a);
  const Mac6 mac_b = verifier.compute(1, 1700000000, hop_b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(verifier.compute(1, 1700000000, hop_a), mac_a);
    EXPECT_EQ(verifier.compute(1, 1700000000, hop_b), mac_b);
  }
  EXPECT_EQ(cells.hits.value(), 0u);
  EXPECT_EQ(cells.misses.value(), 10u);

  CacheCells resident_cells;
  HopVerifier resident{key, {.cache_entries = 1}, resident_cells.hits,
                       resident_cells.misses};
  (void)resident.compute(1, 1700000000, hop_a);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(resident.compute(1, 1700000000, hop_a), mac_a);
  }
  EXPECT_EQ(resident_cells.hits.value(), 4u);
  EXPECT_EQ(resident_cells.misses.value(), 1u);
}

TEST(HopVerifier, DisabledCacheStillComputesCorrectly) {
  const FwdKey key = derive_fwd_key(bytes_of("cache-disabled"));
  CacheCells cells;
  HopVerifier verifier{key, {.cache_entries = 0}, cells.hits, cells.misses};
  const auto hop = verifier_hop(IfaceId{4}, IfaceId{5});
  const Mac6 mac = verifier.compute(7, 1700000000, hop);
  EXPECT_EQ(mac, compute_hop_mac(key, 7, 1700000000, hop));
  EXPECT_EQ(verifier.compute(7, 1700000000, hop), mac);
  EXPECT_EQ(cells.hits.value(), 0u);
  EXPECT_EQ(cells.misses.value(), 0u);
}

TEST(HopMac, FreeFunctionsReuseCachedContexts) {
  // The free functions route through a process-wide per-key context
  // cache: repeated calls under keys this process has already seen run
  // zero new key schedules.
  const FwdKey k1 = derive_fwd_key(bytes_of("ctx-cache-one"));
  const FwdKey k2 = derive_fwd_key(bytes_of("ctx-cache-two"));
  const auto hop = verifier_hop(IfaceId{1}, IfaceId{2});
  (void)compute_hop_mac(k1, 1, 1700000000, hop);  // warm both contexts
  (void)compute_hop_mac(k2, 1, 1700000000, hop);
  const auto warm = crypto::Aes128::key_schedules_run();
  for (int i = 0; i < 32; ++i) {
    (void)compute_hop_mac(i % 2 ? k1 : k2, static_cast<std::uint16_t>(i),
                          1700000000, hop);
  }
  EXPECT_EQ(crypto::Aes128::key_schedules_run(), warm);
}

TEST(Scmp, EchoRoundTrip) {
  const auto request = make_echo_request(7, 42, bytes_of("ping"));
  const auto bytes = request.serialize();
  const auto parsed = ScmpMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, ScmpType::kEchoRequest);
  EXPECT_EQ(parsed->identifier, 7);
  EXPECT_EQ(parsed->sequence, 42);
  EXPECT_EQ(parsed->data, bytes_of("ping"));
  const auto reply = make_echo_reply(parsed.value());
  EXPECT_EQ(reply.type, ScmpType::kEchoReply);
  EXPECT_EQ(reply.sequence, 42);
  EXPECT_FALSE(reply.is_error());
}

TEST(Scmp, ExternalIfaceDownCarriesOrigin) {
  const auto ia = IsdAs::parse("71-2:0:35").value();
  const auto msg = make_external_iface_down(ia, 4);
  EXPECT_TRUE(msg.is_error());
  const auto parsed = ScmpMessage::parse(msg.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(IsdAs::from_packed(parsed->origin_ia), ia);
  EXPECT_EQ(parsed->failed_iface, 4u);
}

TEST(Scmp, ParseRejectsTruncated) {
  const auto bytes = make_echo_request(1, 2).serialize();
  Bytes cut(bytes.begin(), bytes.begin() + 5);
  EXPECT_FALSE(ScmpMessage::parse(cut).ok());
}

TEST(Udp, DatagramRoundTrip) {
  UdpDatagram dg;
  dg.src_port = 40001;
  dg.dst_port = 8080;
  dg.data = bytes_of("hello scion");
  const auto parsed = UdpDatagram::parse(dg.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->src_port, 40001);
  EXPECT_EQ(parsed->dst_port, 8080);
  EXPECT_EQ(parsed->data, bytes_of("hello scion"));
}

// Property sweep: random path shapes round-trip through bytes.
class PacketProperty : public ::testing::TestWithParam<int> {};

TEST_P(PacketProperty, RandomPathsRoundTrip) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 7};
  ScionPacket pkt;
  pkt.dst = Address{IsdAs{71, As{rng.next_u64() & 0xFFFF}}, 1};
  pkt.src = Address{IsdAs{64, As{rng.next_u64() & 0xFFFF}}, 2};
  const std::size_t segments = 1 + rng.next_below(3);
  for (std::size_t s = 0; s < segments; ++s) {
    InfoField inf;
    inf.construction_dir = rng.chance(0.5);
    inf.peering = rng.chance(0.2);
    inf.seg_id = static_cast<std::uint16_t>(rng.next_u64());
    inf.timestamp = static_cast<std::uint32_t>(rng.next_u64());
    pkt.path.info.push_back(inf);
    const std::size_t hops = 1 + rng.next_below(5);
    pkt.path.seg_len[s] = static_cast<std::uint8_t>(hops);
    for (std::size_t h = 0; h < hops; ++h) {
      HopField hop;
      hop.peering = rng.chance(0.1);
      hop.exp_time = static_cast<std::uint8_t>(rng.next_u64());
      hop.cons_ingress = static_cast<IfaceId>(rng.next_u64());
      hop.cons_egress = static_cast<IfaceId>(rng.next_u64());
      for (auto& b : hop.mac) b = static_cast<std::uint8_t>(rng.next_u64());
      pkt.path.hops.push_back(hop);
    }
  }
  pkt.payload.resize(rng.next_below(100));
  for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto bytes = pkt.serialize();
  ASSERT_TRUE(bytes.ok());
  const auto parsed = ScionPacket::parse(bytes.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value(), pkt);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PacketProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace sciera::dataplane
