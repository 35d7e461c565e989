// Adversarial robustness sweeps: random byte-level corruption of packets,
// SCMP messages, topology files and PCBs must never crash a parser or a
// router, and MAC/signature protection must hold under every single-byte
// mutation of protected fields. Ed25519::verify must never accept a random
// or bit-flipped (public key, signature, message) triple.
#include <gtest/gtest.h>

#include "controlplane/control_plane.h"
#include "crypto/ed25519.h"
#include "sig/sig.h"
#include "topology/parser.h"
#include "topology/sciera_net.h"

namespace sciera {
namespace {

namespace a = topology::ases;

controlplane::ScionNetwork& net() {
  static controlplane::ScionNetwork network{topology::build_sciera()};
  return network;
}

Bytes valid_packet_bytes() {
  const auto paths = net().paths(a::uva(), a::ufms());
  dataplane::ScionPacket pkt;
  pkt.src = {a::uva(), 1};
  pkt.dst = {a::ufms(), 2};
  pkt.next_hdr = dataplane::kProtoScmp;
  pkt.path = paths.front().dataplane_path;
  pkt.payload = dataplane::make_echo_request(1, 1).serialize();
  return pkt.serialize().value();
}

// Parsers survive arbitrary random bytes.
class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashParsers) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
  Bytes junk(rng.next_below(300));
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
  // The parsers must return errors, not crash; success on random bytes is
  // allowed only if the payload happens to be self-consistent.
  (void)dataplane::ScionPacket::parse(junk);
  (void)dataplane::ScmpMessage::parse(junk);
  (void)dataplane::UdpDatagram::parse(junk);
  (void)sig::IpPacket::parse(junk);
  (void)topology::parse(std::string(junk.begin(), junk.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 30));

// Truncation at every boundary is an error, never UB.
TEST(ParserFuzz, EveryTruncationRejected) {
  const Bytes bytes = valid_packet_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Bytes truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(dataplane::ScionPacket::parse(truncated).ok())
        << "cut=" << cut;
  }
  // And the untruncated packet parses.
  EXPECT_TRUE(dataplane::ScionPacket::parse(bytes).ok());
}

// Single-byte mutations of a valid in-flight packet must never produce a
// successful echo: either a parser rejects it, a router drops it (MAC,
// ingress, bounds), or — for bytes outside the protected region, like the
// payload or flow id — the reply must come back unchanged semantics aside.
class MutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzz, MutatedPathBytesNeverReachDestination) {
  auto& network = net();
  const auto paths = network.paths(a::uva(), a::princeton());
  ASSERT_FALSE(paths.empty());

  int delivered = 0;
  const dataplane::Address host{a::uva(), 0x0A0F0001};
  ASSERT_TRUE(network
                  .register_host(host, [&](const dataplane::ScionPacket&,
                                           SimTime) { ++delivered; })
                  .ok());

  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729 + 7};
  for (int trial = 0; trial < 20; ++trial) {
    dataplane::ScionPacket pkt;
    pkt.src = host;
    pkt.dst = {a::princeton(), 2};
    pkt.next_hdr = dataplane::kProtoScmp;
    pkt.path = paths.front().dataplane_path;
    pkt.payload = dataplane::make_echo_request(
                      9, static_cast<std::uint16_t>(trial))
                      .serialize();
    // Flip one random bit inside the path header region (info+hop fields):
    // offsets [40, 40 + path bytes).
    const std::size_t path_bytes =
        4 + pkt.path.info.size() * 8 + pkt.path.hops.size() * 12;
    auto bytes = pkt.serialize().value();
    const std::size_t offset = 36 + rng.next_below(path_bytes);
    bytes[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));

    auto mutated = dataplane::ScionPacket::parse(bytes);
    if (!mutated.ok()) continue;  // parser rejected: fine
    // Inject through the source router like a malicious host would.
    (void)network.send_from_host(mutated.value());
  }
  network.sim().run_for(5 * kSecond);
  network.unregister_host(host);
  // No mutated packet may complete the round trip. (Bit flips in the
  // curr_inf/curr_hf pointers or seg_id are caught by MAC verification;
  // iface flips by ingress checks; expiry flips by MAC too.)
  EXPECT_EQ(delivered, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0, 10));

// Routers never crash on totally random frames arriving from a link.
TEST(RouterFuzz, RandomFramesAreDiscarded) {
  auto& network = net();
  auto* router = network.router(a::geant());
  const auto before = router->metrics().delivered->value();
  Rng rng{99};
  // Feed junk through the router's receive path via a real link arrival:
  // easiest is to parse-reject; emulate by calling receive with a frame.
  for (int i = 0; i < 200; ++i) {
    simnet::Frame frame;
    frame.bytes.resize(rng.next_below(200));
    for (auto& b : frame.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    router->receive(frame, simnet::Arrival{1, network.sim().now()});
  }
  network.sim().run_for(kSecond);
  EXPECT_EQ(router->metrics().delivered->value(), before);
  EXPECT_GT(router->metrics().drop_malformed->value(), 0u);
}

// Sanitizer-friendly corpus for the packet parser: each case targets a
// specific bounds/validation path in src/dataplane/packet.cc, so an ASan/
// UBSan run exercises exactly the arithmetic those paths perform.
TEST(PacketCorpusFuzz, OversizedHopCountsRejected) {
  // PathMeta sits at offset 36 (12-byte common + 24-byte address header).
  // Rewrite it to claim maximal segments (3 x 63 hops): the hop-field loop
  // must hit "truncated hop field", never read past the buffer.
  Bytes bytes = valid_packet_bytes();
  ASSERT_GT(bytes.size(), 40u);
  const std::uint32_t meta = (63u << 12) | (63u << 6) | 63u;
  for (int i = 0; i < 4; ++i) {
    bytes[36 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(meta >> (24 - 8 * i));
  }
  const auto parsed = dataplane::ScionPacket::parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, Errc::kParseError);
}

TEST(PacketCorpusFuzz, SegLenGapRejected) {
  // seg_len = {k, 0, k}: a zero-length middle segment must fail
  // validate()'s "seg_len set for missing segment" rule even though the
  // total byte count can look plausible.
  Bytes bytes = valid_packet_bytes();
  const std::uint32_t meta = (2u << 12) | (0u << 6) | 2u;
  for (int i = 0; i < 4; ++i) {
    bytes[36 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(meta >> (24 - 8 * i));
  }
  EXPECT_FALSE(dataplane::ScionPacket::parse(bytes).ok());
}

TEST(PacketCorpusFuzz, CurrPointersPastEndRejected) {
  // curr_inf = 3 (no such segment) and curr_hf = 63: validate() must
  // reject the pointers before any router dereferences them.
  Bytes bytes = valid_packet_bytes();
  bytes[36] = static_cast<std::uint8_t>((3u << 6) | 63u);
  EXPECT_FALSE(dataplane::ScionPacket::parse(bytes).ok());
}

TEST(PacketCorpusFuzz, PayloadLengthOverrunRejected) {
  // A payload_len larger than the remaining bytes (offset 8..11 of the
  // common header) must fail the final bounds-checked read.
  Bytes bytes = valid_packet_bytes();
  bytes[8] = 0xFF;
  bytes[9] = 0xFF;
  EXPECT_FALSE(dataplane::ScionPacket::parse(bytes).ok());
}

TEST(PacketCorpusFuzz, TruncatedL4PayloadsRejected) {
  // Every truncation of the L4 payload parsers, mirroring the packet-level
  // sweep: SCMP echo and UDP datagrams.
  const Bytes scmp = dataplane::make_echo_request(5, 9).serialize();
  for (std::size_t cut = 0; cut < scmp.size(); ++cut) {
    Bytes t(scmp.begin(), scmp.begin() + static_cast<long>(cut));
    EXPECT_FALSE(dataplane::ScmpMessage::parse(t).ok()) << "scmp cut=" << cut;
  }
  dataplane::UdpDatagram dg;
  dg.src_port = 4242;
  dg.dst_port = 53;
  dg.data = bytes_of("sciera");
  const Bytes udp = dg.serialize();
  for (std::size_t cut = 0; cut < udp.size(); ++cut) {
    Bytes t(udp.begin(), udp.begin() + static_cast<long>(cut));
    EXPECT_FALSE(dataplane::UdpDatagram::parse(t).ok()) << "udp cut=" << cut;
  }
}

// Malformed-topology corpus for src/topology/parser.cc: every case must
// come back as a parse error, never a crash or a partially built topology.
TEST(TopologyCorpusFuzz, MalformedTopologiesRejected) {
  const char* corpus[] = {
      // 'as' declarations.
      "as",                                    // missing ISD-AS
      "as not-an-ia",                          // unparseable ISD-AS
      "as 71-559 lat=abc",                     // non-numeric coordinate
      "as 71-559 lon=12..5",                   // malformed double
      "as 71-559 name=\"unterminated",         // unterminated quote
      "as 99999999999999999999-1",             // ISD overflow
      "as 71-559\nas 71-559",                  // duplicate AS
      // 'link' declarations.
      "link",                                  // nothing at all
      "link l1 71-559",                        // missing peer + type
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 wormhole",  // bad type
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 core delay_us=ten",
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 core bw_mbps=1e3",
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 core ifaces=1",
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 core ifaces=1:2:3",
      "as 71-559\nas 64-1\nlink l1 71-559 64-1 core ifaces=x:y",
      "link l1 71-559 64-1 core",              // both ASes undeclared
      "as 71-559\nlink l1 71-559 64-1 core",   // one AS undeclared
  };
  for (const char* text : corpus) {
    const auto parsed = topology::parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
  }
}

TEST(TopologyCorpusFuzz, ParserRoundTripsTheRealTopology) {
  // The serializer and parser must agree on the deployed topology — the
  // corpus above proves rejection, this proves acceptance.
  const auto topo = topology::build_sciera();
  const auto reparsed = topology::parse(topology::serialize(topo));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ases().size(), topo.ases().size());
  EXPECT_EQ(reparsed->links().size(), topo.links().size());
}

// Tampered PCB entries never verify, for every entry and field class.
TEST(PcbFuzz, EveryFieldMutationBreaksSignature) {
  auto& network = net();
  auto* pki71 = network.pki(71);
  auto* pki64 = network.pki(64);
  const controlplane::KeyLookup keys =
      [&](IsdAs as) -> const crypto::Ed25519::PublicKey* {
    auto* pki = as.isd() == 71 ? pki71 : pki64;
    const auto* creds = pki->credentials(as);
    return creds == nullptr ? nullptr : &creds->as_cert.subject_key;
  };
  const controlplane::PathSegment* segment = nullptr;
  for (const auto& candidate : network.segments().all()) {
    if (candidate.pcb.entries.size() >= 3) {
      segment = &candidate;
      break;
    }
  }
  ASSERT_NE(segment, nullptr);
  ASSERT_TRUE(verify_pcb(segment->pcb, keys).ok());

  for (std::size_t entry = 0; entry < segment->pcb.entries.size(); ++entry) {
    {
      auto tampered = segment->pcb;
      tampered.entries[entry].hop.cons_ingress ^= 1;
      EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    }
    {
      auto tampered = segment->pcb;
      tampered.entries[entry].hop.cons_egress ^= 1;
      EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    }
    {
      auto tampered = segment->pcb;
      tampered.entries[entry].beta ^= 0x0100;
      EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    }
    {
      auto tampered = segment->pcb;
      tampered.entries[entry].hop.mac[0] ^= 1;
      EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    }
    {
      auto tampered = segment->pcb;
      tampered.entries[entry].signature[10] ^= 1;
      EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    }
  }
  // Reordering entries breaks the chain.
  auto reordered = segment->pcb;
  std::swap(reordered.entries[0], reordered.entries[1]);
  EXPECT_FALSE(verify_pcb(reordered, keys).ok());
  // Changing the header (timestamp) invalidates everything.
  auto reheaded = segment->pcb;
  reheaded.timestamp += 1;
  EXPECT_FALSE(verify_pcb(reheaded, keys).ok());
}

// --- Ed25519::verify on hostile triples ------------------------------------

using crypto::Ed25519;

template <std::size_t N>
std::array<std::uint8_t, N> random_array(Rng& rng) {
  std::array<std::uint8_t, N> out{};
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

struct SignedTriple {
  Ed25519::PublicKey pub;
  Ed25519::Signature sig;
  Bytes msg;
};

SignedTriple signed_triple(Rng& rng) {
  const auto key =
      crypto::KeyPair::from_seed(random_array<Ed25519::kSeedSize>(rng));
  Bytes msg = random_bytes(rng, 200);
  const auto sig = Ed25519::sign(key, msg);
  return SignedTriple{key.pub(), sig, std::move(msg)};
}

// Flips bit `bit` of pub || sig || msg.
void flip_bit(SignedTriple& t, std::size_t bit) {
  const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
  std::size_t byte = bit / 8;
  if (byte < t.pub.size()) {
    t.pub[byte] ^= mask;
    return;
  }
  byte -= t.pub.size();
  if (byte < t.sig.size()) {
    t.sig[byte] ^= mask;
    return;
  }
  t.msg[byte - t.sig.size()] ^= mask;
}

class Ed25519Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Fuzz, RandomAndBitFlippedTriplesNeverVerify) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 6151 + 29};
  const SignedTriple valid = signed_triple(rng);
  ASSERT_TRUE(Ed25519::verify(valid.pub, valid.msg, valid.sig));

  for (int trial = 0; trial < 8; ++trial) {
    const auto pub = random_array<Ed25519::kPublicKeySize>(rng);
    const auto sig = random_array<Ed25519::kSignatureSize>(rng);
    EXPECT_FALSE(Ed25519::verify(pub, random_bytes(rng, 200), sig));
    // A genuine signature under a random key, and a random one under the
    // genuine key.
    EXPECT_FALSE(Ed25519::verify(pub, valid.msg, valid.sig));
    EXPECT_FALSE(Ed25519::verify(valid.pub, valid.msg, sig));
  }

  const std::size_t bits =
      (valid.pub.size() + valid.sig.size() + valid.msg.size()) * 8;
  for (int trial = 0; trial < 48; ++trial) {
    SignedTriple mutated = valid;
    const std::size_t bit = rng.next_below(bits);
    flip_bit(mutated, bit);
    EXPECT_FALSE(Ed25519::verify(mutated.pub, mutated.msg, mutated.sig))
        << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519Fuzz, ::testing::Range(0, 10));

TEST(Ed25519Fuzz, EverySingleBitFlipOfKeyAndSignatureRejected) {
  // Eight keys: every flipped key bit is a fresh A for verify's k*A.
  for (std::uint64_t key = 0; key < 8; ++key) {
    Rng rng{4099 + key};
    const SignedTriple valid = signed_triple(rng);
    ASSERT_TRUE(Ed25519::verify(valid.pub, valid.msg, valid.sig)) << key;
    for (std::size_t bit = 0;
         bit < (valid.pub.size() + valid.sig.size()) * 8; ++bit) {
      SignedTriple mutated = valid;
      flip_bit(mutated, bit);
      EXPECT_FALSE(Ed25519::verify(mutated.pub, mutated.msg, mutated.sig))
          << "key " << key << ", bit " << bit;
    }
  }
}

TEST(Ed25519Fuzz, NonCanonicalEncodingsRejected) {
  Rng rng{8191};
  const SignedTriple valid = signed_triple(rng);
  ASSERT_TRUE(Ed25519::verify(valid.pub, valid.msg, valid.sig));

  Ed25519::PublicKey ones_pub{};
  ones_pub.fill(0xFF);
  Ed25519::Signature ones_sig{};
  ones_sig.fill(0xFF);
  EXPECT_FALSE(Ed25519::verify(ones_pub, valid.msg, valid.sig));
  EXPECT_FALSE(Ed25519::verify(valid.pub, valid.msg, ones_sig));
  EXPECT_FALSE(Ed25519::verify(ones_pub, valid.msg, ones_sig));

  // Public keys with y in [p, 2^255 - 1], either sign bit: not encodings.
  // y = p + 1 would decode leniently to the identity, under which
  // (R = B, s = 1) verifies for every message.
  Ed25519::Signature forged{};
  forged[0] = 0x58;  // R = encoding of the base point (y = 4/5)
  for (std::size_t i = 1; i < 32; ++i) forged[i] = 0x66;
  forged[32] = 1;  // s = 1
  for (int k = 0x00; k <= 0x12; ++k) {
    for (const std::uint8_t sign : {0x00, 0x80}) {
      Ed25519::PublicKey pub{};
      pub.fill(0xFF);
      pub[0] = static_cast<std::uint8_t>(0xED + k);
      pub[31] = static_cast<std::uint8_t>(0x7F | sign);
      EXPECT_FALSE(Ed25519::verify(pub, valid.msg, valid.sig)) << k;
      EXPECT_FALSE(Ed25519::verify(pub, valid.msg, forged)) << k;
    }
  }

  // s + L encodes the same scalar mod L; RFC 8032 requires s < L, so the
  // malleated signature is rejected.
  const std::uint8_t order[32] = {
      0xED, 0xD3, 0xF5, 0x5C, 0x1A, 0x63, 0x12, 0x58, 0xD6, 0x9C, 0xF7,
      0xA2, 0xDE, 0xF9, 0xDE, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
  Ed25519::Signature malleated = valid.sig;
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = malleated[32 + i] + order[i] + carry;
    malleated[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  ASSERT_EQ(carry, 0u);
  EXPECT_FALSE(Ed25519::verify(valid.pub, valid.msg, malleated));
}

}  // namespace
}  // namespace sciera
