// Integration tests: beaconing over the SCIERA topology, PCB signature
// verification, path combination (joins, shortcuts, peering), and real
// end-to-end forwarding of SCMP echoes through every border router on a
// combined path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "controlplane/control_plane.h"
#include "crypto/sha256.h"
#include "simnet/audit.h"
#include "topology/sciera_net.h"

namespace sciera::controlplane {
namespace {

namespace a = topology::ases;

// Synthetic two-entry segment for SegmentStore unit tests. Distinct
// origin/terminus pairs give distinct fingerprints.
PathSegment make_segment(std::uint16_t origin, std::uint16_t terminus,
                         std::vector<topology::LinkId> links,
                         SimTime expires_at) {
  PathSegment segment;
  segment.type = SegType::kCore;
  AsEntry first;
  first.ia = IsdAs{71, As{origin}};
  AsEntry second;
  second.ia = IsdAs{71, As{terminus}};
  segment.pcb.entries = {first, second};
  segment.links = std::move(links);
  segment.expires_at = expires_at;
  return segment;
}

class ScieraFixture : public ::testing::Test {
 protected:
  static ScionNetwork& net() {
    // Building the network (PKI keygen + beaconing) is expensive; share one
    // instance across the suite and never mutate link state in these tests.
    static ScionNetwork network{topology::build_sciera()};
    return network;
  }
};

TEST_F(ScieraFixture, BeaconingProducesAllSegmentTypes) {
  const auto& store = net().segments();
  EXPECT_GT(store.count(SegType::kCore), 50u);
  EXPECT_GT(store.count(SegType::kUp), 15u);
  EXPECT_EQ(store.count(SegType::kUp), store.count(SegType::kDown));
}

// Fingerprint text pins, taken before fingerprint() was rebuilt to append
// into one reserved string: a beaconed segment that mixes BGP-style and
// SCION-style ASes, and a synthetic one at the edges of every number it
// spells (largest ISD, decimal and hex AS forms, interface 0 and 65535).
TEST_F(ScieraFixture, SegmentFingerprintTextIsPinned) {
  const auto& segments = net().segments().all();
  ASSERT_GT(segments.size(), 5u);
  EXPECT_EQ(segments[5].fingerprint(),
            "core:71-20965[0,2]71-2:0:3e[1,3]71-2:0:3f[2,1]71-2:0:35[4,0]");

  PathSegment segment;
  segment.type = SegType::kDown;
  AsEntry first;
  first.ia = IsdAs{65535, As{4294967295ULL}};
  first.hop.cons_ingress = 65535;
  AsEntry second;
  second.ia = IsdAs{71, As{4294967296ULL}};
  second.hop.cons_ingress = 1;
  second.hop.cons_egress = 65535;
  AsEntry third;
  third.hop.cons_ingress = 10;
  third.hop.cons_egress = 100;
  segment.pcb.entries = {first, second, third};
  EXPECT_EQ(segment.pcb.fingerprint(),
            "65535-4294967295[65535,0]71-1:0:0[1,65535]0-0[10,100]");
  EXPECT_EQ(segment.fingerprint(),
            "down:65535-4294967295[65535,0]71-1:0:0[1,65535]0-0[10,100]");
}

// --- Segment expiry and the self-healing refresh sweep ----------------------

TEST(SegmentStore, PruneExpiredDropsAgedKeepsImmortal) {
  SegmentStore store;
  store.add(make_segment(1, 2, {}, 0));  // expires_at 0 = never
  store.add(make_segment(1, 3, {}, 5 * kSecond));
  store.add(make_segment(1, 4, {}, 9 * kSecond));
  EXPECT_EQ(store.prune_expired(4 * kSecond), 0u);
  // Boundary: a segment aged exactly to expires_at is gone (<= now).
  EXPECT_EQ(store.prune_expired(5 * kSecond), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.prune_expired(100 * kSecond), 1u);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.all()[0].terminus(), (IsdAs{71, As{2}}));
}

TEST(SegmentStore, RefreshAccountsEveryFateDeterministically) {
  const SimTime now = 2 * kSecond;
  const SimTime new_expiry = 8 * kSecond;
  SegmentStore store;
  store.add(make_segment(1, 2, {0}, 3 * kSecond));  // refreshed: in fresh
  store.add(make_segment(1, 3, {7}, 3 * kSecond));  // revoked: link 7 down
  store.add(make_segment(1, 4, {}, 1 * kSecond));   // expired: absent + aged
  store.add(make_segment(1, 5, {}, 10 * kSecond));  // kept: absent, in-life
  SegmentStore fresh;
  fresh.add(make_segment(1, 2, {0}, 0));
  fresh.add(make_segment(1, 6, {1}, 0));  // added
  const RefreshDelta delta =
      store.refresh(fresh, now, new_expiry,
                    [](topology::LinkId id) { return id != 7; });
  EXPECT_EQ(delta.refreshed, 1u);
  EXPECT_EQ(delta.revoked, 1u);
  EXPECT_EQ(delta.expired, 1u);
  EXPECT_EQ(delta.added, 1u);
  ASSERT_EQ(store.size(), 3u);
  // Survivors keep their relative order; additions follow in beaconing
  // order. The refreshed segment carries the new expiry, the merely-kept
  // one its original.
  EXPECT_EQ(store.all()[0].terminus(), (IsdAs{71, As{2}}));
  EXPECT_EQ(store.all()[0].expires_at, new_expiry);
  EXPECT_EQ(store.all()[1].terminus(), (IsdAs{71, As{5}}));
  EXPECT_EQ(store.all()[1].expires_at, 10 * kSecond);
  EXPECT_EQ(store.all()[2].terminus(), (IsdAs{71, As{6}}));
  EXPECT_EQ(store.all()[2].expires_at, new_expiry);
}

TEST(SegmentStore, AddDropsDuplicateFingerprintKeepingFirstCopyInOrder) {
  SegmentStore store;
  store.add(make_segment(1, 2, {0}, 5 * kSecond));
  store.add(make_segment(1, 3, {1}, 20 * kSecond));
  // Same type and interface chain as the first: dropped, whatever its
  // links and expiry say.
  store.add(make_segment(1, 2, {9}, 30 * kSecond));
  // Same chain under another type is a different segment.
  PathSegment up = make_segment(1, 2, {0}, 0);
  up.type = SegType::kUp;
  store.add(up);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.all()[0].terminus(), (IsdAs{71, As{2}}));
  EXPECT_EQ(store.all()[0].expires_at, 5 * kSecond);
  EXPECT_EQ(store.all()[0].links, (std::vector<topology::LinkId>{0}));
  EXPECT_EQ(store.all()[1].terminus(), (IsdAs{71, As{3}}));
  EXPECT_EQ(store.all()[2].type, SegType::kUp);

  // Once pruned, the fingerprint is free again and a new copy appends.
  EXPECT_EQ(store.prune_expired(5 * kSecond), 1u);
  store.add(make_segment(1, 2, {4}, 40 * kSecond));
  store.add(make_segment(1, 3, {5}, 50 * kSecond));  // still stored
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.all()[0].terminus(), (IsdAs{71, As{3}}));
  EXPECT_EQ(store.all()[1].type, SegType::kUp);
  EXPECT_EQ(store.all()[2].terminus(), (IsdAs{71, As{2}}));
  EXPECT_EQ(store.all()[2].links, (std::vector<topology::LinkId>{4}));

  // After a refresh the store dedups against exactly its survivors: the
  // revoked segment may come back, refreshed and added ones may not.
  SegmentStore fresh;
  fresh.add(make_segment(1, 3, {5}, 0));
  fresh.add(make_segment(1, 6, {6}, 0));
  const RefreshDelta delta = store.refresh(
      fresh, 10 * kSecond, 60 * kSecond,
      [](topology::LinkId id) { return id != 4; });
  EXPECT_EQ(delta.revoked, 1u);
  EXPECT_EQ(delta.added, 1u);
  ASSERT_EQ(store.size(), 3u);
  store.add(make_segment(1, 3, {7}, 0));
  store.add(make_segment(1, 6, {7}, 0));
  store.add(make_segment(1, 2, {8}, 0));
  ASSERT_EQ(store.size(), 4u);
  EXPECT_EQ(store.all()[0].terminus(), (IsdAs{71, As{3}}));
  EXPECT_EQ(store.all()[0].expires_at, 60 * kSecond);
  EXPECT_EQ(store.all()[1].type, SegType::kUp);
  EXPECT_EQ(store.all()[2].terminus(), (IsdAs{71, As{6}}));
  EXPECT_EQ(store.all()[2].links, (std::vector<topology::LinkId>{6}));
  EXPECT_EQ(store.all()[3].terminus(), (IsdAs{71, As{2}}));
  EXPECT_EQ(store.all()[3].links, (std::vector<topology::LinkId>{8}));
}

TEST(SegmentStore, RefreshWithNullLinkPredicateRevokesNothing) {
  SegmentStore store;
  store.add(make_segment(1, 2, {7}, 3 * kSecond));
  SegmentStore fresh;
  const RefreshDelta delta = store.refresh(fresh, 0, 8 * kSecond, nullptr);
  EXPECT_EQ(delta.revoked, 0u);
  EXPECT_EQ(store.size(), 1u);  // absent from fresh but not yet expired
}

TEST_F(ScieraFixture, PcbSignaturesVerify) {
  auto* pki71 = net().pki(71);
  auto* pki64 = net().pki(64);
  ASSERT_NE(pki71, nullptr);
  ASSERT_NE(pki64, nullptr);
  const KeyLookup keys = [&](IsdAs as) -> const crypto::Ed25519::PublicKey* {
    auto* pki = as.isd() == 71 ? pki71 : pki64;
    const auto* creds = pki->credentials(as);
    return creds == nullptr ? nullptr : &creds->as_cert.subject_key;
  };
  int checked = 0;
  for (const auto& segment : net().segments().all()) {
    ASSERT_TRUE(verify_pcb(segment.pcb, keys).ok())
        << segment.fingerprint();
    if (++checked >= 200) break;  // spot check a representative sample
  }
  EXPECT_GE(checked, 100);
}

TEST_F(ScieraFixture, SweepSignaturesMatchReferenceDigest) {
  // Parity gate for beaconing: SHA-256 over every entry signature of the
  // default SCIERA sweep, in store order. The digest was taken when every
  // entry of every PCB was signed from scratch; signing each distinct
  // entry once per sweep must reproduce it byte for byte.
  crypto::Sha256 digest;
  std::size_t entries = 0;
  for (const auto& segment : net().segments().all()) {
    for (const auto& entry : segment.pcb.entries) {
      digest.update(BytesView{entry.signature.data(), entry.signature.size()});
      ++entries;
    }
  }
  EXPECT_EQ(net().segments().size(), 1546u);
  EXPECT_EQ(entries, 8260u);
  EXPECT_EQ(to_hex(digest.finish()),
            "df636a6ff6243ae2f76fec9e347dd47c3a0f42eb6f63af298c95b185aa9c5594");
}

TEST(Beaconing, SweepSignsEachDistinctEntryOnce) {
  // A default SCIERA sweep builds 8,204 PCB entries but only 3,040
  // distinct signed payloads; walks sharing a prefix share its entries.
  // Each sweep signs afresh: the second costs as much as the first.
  ScionNetwork network{topology::build_sciera()};
  for (int sweep = 0; sweep < 2; ++sweep) {
    const auto before = crypto::Ed25519::signatures_made();
    network.run_beaconing();
    EXPECT_EQ(crypto::Ed25519::signatures_made() - before, 3040u)
        << "sweep " << sweep;
  }
}

TEST_F(ScieraFixture, TamperedPcbFailsVerification) {
  auto* pki71 = net().pki(71);
  const KeyLookup keys = [&](IsdAs as) -> const crypto::Ed25519::PublicKey* {
    if (as.isd() != 71) return nullptr;
    const auto* creds = pki71->credentials(as);
    return creds == nullptr ? nullptr : &creds->as_cert.subject_key;
  };
  for (const auto& segment : net().segments().all()) {
    if (segment.pcb.entries.size() < 2 || segment.origin().isd() != 71) {
      continue;
    }
    Pcb tampered = segment.pcb;
    tampered.entries[0].hop.cons_egress ^= 1;  // prefix hijack attempt
    EXPECT_FALSE(verify_pcb(tampered, keys).ok());
    Pcb dropped = segment.pcb;
    dropped.entries.erase(dropped.entries.begin() + 1);  // splice out an AS
    EXPECT_FALSE(verify_pcb(dropped, keys).ok());
    return;
  }
  FAIL() << "no multi-entry ISD-71 segment found";
}

TEST_F(ScieraFixture, LeafPairsHaveAtLeastTwoPaths) {
  // Section 5.5: "for each source-destination AS pair, there are at least
  // 2 distinct paths available".
  const auto ms = topology::path_matrix_ases();
  for (IsdAs src : ms) {
    for (IsdAs dst : ms) {
      if (src == dst) continue;
      const auto paths = net().paths(src, dst);
      EXPECT_GE(paths.size(), 2u)
          << src.to_string() << " -> " << dst.to_string();
    }
  }
}

TEST_F(ScieraFixture, PathsAreLoopFreeAndDeduplicated) {
  const auto paths = net().paths(a::uva(), a::ufms());
  EXPECT_GE(paths.size(), 10u);
  std::set<std::string> fps;
  for (const auto& path : paths) {
    std::set<IsdAs> unique(path.as_sequence.begin(), path.as_sequence.end());
    EXPECT_EQ(unique.size(), path.as_sequence.size()) << path.to_string();
    EXPECT_TRUE(fps.insert(path.fingerprint()).second) << path.to_string();
    EXPECT_TRUE(path.dataplane_path.validate().ok());
    EXPECT_EQ(path.as_sequence.front(), a::uva());
    EXPECT_EQ(path.as_sequence.back(), a::ufms());
    // links/interfaces bookkeeping is consistent.
    EXPECT_EQ(path.interfaces.size(), 2 * path.links.size());
  }
}

TEST_F(ScieraFixture, CombinedPathIdentityAndOrderMatchReferenceDigest) {
  // Identity and order pin. A path's fingerprint is its interfaces spelled
  // out, and SHA-256 over every ordered AS pair's fingerprint list, in
  // combiner order, matches the digest taken when fingerprint() rebuilt
  // the string on every call. Quarantine keys, send receipts, multiping
  // tie-breaks and every sort order are built on these bytes.
  crypto::Sha256 digest;
  std::size_t total = 0;
  for (const auto& src : net().topology().ases()) {
    for (const auto& dst : net().topology().ases()) {
      for (const auto& path : net().paths(src.ia, dst.ia)) {
        std::string spelled;
        for (const auto& gid : path.interfaces) {
          spelled += gid.to_string();
          spelled += ' ';
        }
        EXPECT_EQ(path.fingerprint(), spelled);
        digest.update(bytes_of(src.ia.to_string() + ">" +
                               dst.ia.to_string() + " " + path.fingerprint() +
                               "\n"));
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 17882u);
  EXPECT_EQ(to_hex(digest.finish()),
            "2001a71589937471941d75543aecfbf1bffae4f9ad74df5b5c3f9edef79e8e31");
}

TEST_F(ScieraFixture, EveryCrossingListsItsLinksTwoInterfaces) {
  // Multiping ranks disjointness by shared links, which equals half the
  // shared interfaces: for every path of every measurement pair,
  // interfaces[2k] and interfaces[2k + 1] are the two ends of links[k], and
  // no link is crossed twice.
  std::size_t paths = 0;
  for (IsdAs src : topology::measurement_ases()) {
    for (const auto& dst : net().topology().ases()) {
      for (const auto& path : net().paths(src, dst.ia)) {
        ASSERT_EQ(path.interfaces.size(), 2 * path.links.size());
        const std::set<topology::LinkId> distinct(path.links.begin(),
                                                  path.links.end());
        EXPECT_EQ(distinct.size(), path.links.size());
        for (std::size_t k = 0; k < path.links.size(); ++k) {
          const auto* link = net().topology().find_link(path.links[k]);
          ASSERT_NE(link, nullptr);
          const std::set<GlobalIfaceId> ends{
              GlobalIfaceId{link->a, link->a_iface},
              GlobalIfaceId{link->b, link->b_iface}};
          const std::set<GlobalIfaceId> crossed{path.interfaces[2 * k],
                                                path.interfaces[2 * k + 1]};
          EXPECT_EQ(crossed, ends) << path.to_string() << " link " << k;
        }
        ++paths;
      }
    }
  }
  EXPECT_GT(paths, 1000u);
}

TEST_F(ScieraFixture, SingleBgpPathButManyScionPathsDaejeonSingapore) {
  // Section 5.5: "while there is only a single BGP path from the Daejeon
  // core to the Singapore core, SCIERA also provides paths around the
  // globe via Chicago and Amsterdam."
  const auto paths = net().paths(a::kisti_dj(), a::kisti_sg());
  ASSERT_GE(paths.size(), 3u);
  bool direct = false, around_the_globe = false;
  for (const auto& path : paths) {
    if (path.as_sequence.size() == 3 &&
        path.as_sequence[1] == a::kisti_hk()) {
      direct = true;
    }
    bool via_chicago = false;
    for (IsdAs ia : path.as_sequence) {
      if (ia == a::kisti_chg()) via_chicago = true;
    }
    if (via_chicago) around_the_globe = true;
  }
  EXPECT_TRUE(direct);
  EXPECT_TRUE(around_the_globe);
}

TEST_F(ScieraFixture, CrossIsdPathsExist) {
  const auto paths = net().paths(a::ovgu(), a::eth());
  ASSERT_GE(paths.size(), 1u);
  for (const auto& path : paths) {
    EXPECT_EQ(path.as_sequence.front().isd(), 71);
    EXPECT_EQ(path.as_sequence.back().isd(), 64);
  }
}

TEST_F(ScieraFixture, PeeringShortcutFound) {
  // SEC and NUS peer directly at the SingAREN open exchange; the two-hop
  // peering path must be offered alongside the path via KISTI SG.
  const auto paths = net().paths(a::sec(), a::nus());
  ASSERT_GE(paths.size(), 2u);
  const auto& best = paths.front();
  EXPECT_EQ(best.as_sequence.size(), 2u) << best.to_string();
  EXPECT_TRUE(best.dataplane_path.info[0].peering);
}

TEST_F(ScieraFixture, DisjointnessMetricBounds) {
  const auto paths = net().paths(a::uva(), a::ufms());
  ASSERT_GE(paths.size(), 2u);
  for (std::size_t i = 0; i < std::min<std::size_t>(paths.size(), 6); ++i) {
    for (std::size_t j = 0; j < std::min<std::size_t>(paths.size(), 6); ++j) {
      const double d = path_disjointness(paths[i], paths[j]);
      EXPECT_GE(d, 0.5);  // identical paths floor at 0.5 (union/total)
      EXPECT_LE(d, 1.0);
      if (i == j) {
        EXPECT_DOUBLE_EQ(d, 0.5);
      }
    }
  }
}


// --- End-to-end forwarding over the real data plane -------------------------

class EchoHost {
 public:
  EchoHost(ScionNetwork& net, dataplane::Address addr)
      : net_(net), addr_(addr) {
    const auto status = net_.register_host(
        addr_, [this](const dataplane::ScionPacket& pkt, SimTime t) {
          on_packet(pkt, t);
        });
    EXPECT_TRUE(status.ok());
  }
  ~EchoHost() { net_.unregister_host(addr_); }

  // Sends one SCMP echo over the given path; returns via reply_times.
  void ping(const dataplane::Address& dst, const Path& path,
            std::uint16_t seq) {
    dataplane::ScionPacket pkt;
    pkt.src = addr_;
    pkt.dst = dst;
    pkt.next_hdr = dataplane::kProtoScmp;
    pkt.path = path.dataplane_path;
    pkt.payload = dataplane::make_echo_request(1, seq).serialize();
    send_times_[seq] = net_.sim().now();
    const auto status = net_.send_from_host(pkt);
    EXPECT_TRUE(status.ok());
  }

  std::map<std::uint16_t, Duration> rtts;

 private:
  void on_packet(const dataplane::ScionPacket& pkt, SimTime t) {
    if (pkt.next_hdr != dataplane::kProtoScmp) return;
    const auto msg = dataplane::ScmpMessage::parse(pkt.payload);
    ASSERT_TRUE(msg.ok());
    if (msg->type == dataplane::ScmpType::kEchoReply) {
      rtts[msg->sequence] = t - send_times_.at(msg->sequence);
    }
  }

  ScionNetwork& net_;
  dataplane::Address addr_;
  std::map<std::uint16_t, SimTime> send_times_;
};

TEST_F(ScieraFixture, DestinationOnUpSegmentUsesSingleSegment) {
  // UFMS -> RNP: the destination lies on UFMS's up segment; the best path
  // must be the one-segment cut, not a detour through a core.
  const auto paths = net().paths(a::ufms(), a::rnp());
  ASSERT_FALSE(paths.empty());
  const auto& best = paths.front();
  EXPECT_EQ(best.as_sequence.size(), 2u) << best.to_string();
  EXPECT_EQ(best.dataplane_path.num_segments(), 1u);
  // And it actually works on the data plane.
  EchoHost host{net(), {a::ufms(), 0x0A111111}};
  host.ping({a::rnp(), 7}, best, 0);
  net().sim().run_for(kSecond);
  EXPECT_EQ(host.rtts.size(), 1u);
}

TEST_F(ScieraFixture, SourceOnDownSegmentUsesSingleSegment) {
  const auto paths = net().paths(a::rnp(), a::ufms());
  ASSERT_FALSE(paths.empty());
  const auto& best = paths.front();
  EXPECT_EQ(best.as_sequence.size(), 2u) << best.to_string();
  EXPECT_EQ(best.dataplane_path.num_segments(), 1u);
  EchoHost host{net(), {a::rnp(), 0x0A111112}};
  host.ping({a::ufms(), 7}, best, 0);
  net().sim().run_for(kSecond);
  EXPECT_EQ(host.rtts.size(), 1u);
}

TEST(CombinatorShortcut, CommonAncestorShortcutBelowCore) {
  // With UFPR included, UFMS -> UFPR must offer the RNP shortcut (two
  // segments meeting at RNP) rather than only core detours.
  controlplane::ScionNetwork net{
      topology::build_sciera({.include_under_construction = true})};
  const auto paths = net.paths(a::ufms(), a::ufpr());
  ASSERT_FALSE(paths.empty());
  const auto& best = paths.front();
  ASSERT_EQ(best.as_sequence.size(), 3u) << best.to_string();
  EXPECT_EQ(best.as_sequence[1], a::rnp());
  // No core AS on the best path: it is a genuine shortcut.
  for (IsdAs ia : best.as_sequence) {
    EXPECT_FALSE(net.topology().find_as(ia)->core) << ia.to_string();
  }
  // Echo over the shortcut exercises the mid-segment seg_id splice.
  EchoHost host{net, {a::ufms(), 0x0A111113}};
  host.ping({a::ufpr(), 7}, best, 0);
  net.sim().run_for(kSecond);
  EXPECT_EQ(host.rtts.size(), 1u);
  // Disabling shortcuts removes the 3-hop option.
  controlplane::CombinatorOptions no_shortcuts;
  no_shortcuts.allow_shortcuts = false;
  const auto without = net.paths(a::ufms(), a::ufpr(), no_shortcuts);
  for (const auto& path : without) {
    bool has_core = false;
    for (IsdAs ia : path.as_sequence) {
      has_core |= net.topology().find_as(ia)->core;
    }
    EXPECT_TRUE(has_core) << path.to_string();
  }
}

TEST_F(ScieraFixture, PeeringDisabledRemovesTwoHopPath) {
  controlplane::CombinatorOptions no_peering;
  no_peering.allow_peering = false;
  const auto paths = net().paths(a::sec(), a::nus(), no_peering);
  for (const auto& path : paths) {
    EXPECT_GT(path.as_sequence.size(), 2u) << path.to_string();
  }
}

TEST_F(ScieraFixture, MaxPathsCapRespected) {
  controlplane::CombinatorOptions capped;
  capped.max_paths = 5;
  const auto paths = net().paths(a::uva(), a::ufms(), capped);
  EXPECT_LE(paths.size(), 5u);
  ASSERT_FALSE(paths.empty());
  // The cap keeps the best (fewest-hop) paths.
  const auto all = net().paths(a::uva(), a::ufms());
  EXPECT_EQ(paths.front().fingerprint(), all.front().fingerprint());
}

TEST_F(ScieraFixture, StaticRttConsistentWithLinkDelays) {
  const auto paths = net().paths(a::ovgu(), a::sidn());
  ASSERT_FALSE(paths.empty());
  for (const auto& path : paths) {
    Duration sum = 0;
    for (topology::LinkId id : path.links) {
      sum += net().topology().find_link(id)->delay;
    }
    EXPECT_EQ(path.static_rtt, 2 * sum + 2 * 600 * kMicrosecond)
        << path.to_string();
  }
}

TEST_F(ScieraFixture, EchoOverEveryPathUvaToUfms) {
  auto& net = ScieraFixture::net();
  EchoHost host{net, {a::uva(), 0x0A000001}};
  const auto paths = net.paths(a::uva(), a::ufms());
  ASSERT_GE(paths.size(), 4u);
  const std::size_t n = std::min<std::size_t>(paths.size(), 25);
  for (std::size_t i = 0; i < n; ++i) {
    host.ping({a::ufms(), 2}, paths[i], static_cast<std::uint16_t>(i));
  }
  net.sim().run_for(10 * kSecond);
  ASSERT_EQ(host.rtts.size(), n) << "every path must complete the echo";
  for (std::size_t i = 0; i < n; ++i) {
    const Duration rtt = host.rtts.at(static_cast<std::uint16_t>(i));
    // RTT within a factor of the static estimate (jitter + serialization).
    EXPECT_GT(rtt, paths[i].static_rtt / 2) << paths[i].to_string();
    EXPECT_LT(rtt, paths[i].static_rtt * 3) << paths[i].to_string();
  }
}

TEST_F(ScieraFixture, EchoOverPeeringPath) {
  auto& net = ScieraFixture::net();
  EchoHost host{net, {a::sec(), 0x0A000001}};
  const auto paths = net.paths(a::sec(), a::nus());
  ASSERT_FALSE(paths.empty());
  // The first path is the 2-hop peering shortcut.
  host.ping({a::nus(), 9}, paths.front(), 0);
  net.sim().run_for(kSecond);
  ASSERT_EQ(host.rtts.size(), 1u);
  EXPECT_LT(host.rtts.at(0), 10 * kMillisecond);
}

TEST_F(ScieraFixture, EchoAcrossIsds) {
  auto& net = ScieraFixture::net();
  EchoHost host{net, {a::ovgu(), 0x0A000001}};
  const auto paths = net.paths(a::ovgu(), a::eth());
  ASSERT_FALSE(paths.empty());
  host.ping({a::eth(), 3}, paths.front(), 0);
  net.sim().run_for(kSecond);
  EXPECT_EQ(host.rtts.size(), 1u);
}

TEST_F(ScieraFixture, ForgedPathIsDroppedByRouters) {
  auto& net = ScieraFixture::net();
  EchoHost host{net, {a::uva(), 0x0A000001}};
  auto paths = net.paths(a::uva(), a::princeton());
  ASSERT_FALSE(paths.empty());
  Path forged = paths.front();
  // Attacker flips an interface in a hop field without the AS key.
  forged.dataplane_path.hops[1].cons_egress ^= 0x1;
  auto mac_drops_on_path = [&] {
    std::uint64_t total = 0;
    for (IsdAs ia : forged.as_sequence) {
      total += net.router(ia)->stats().drop_mac;
    }
    return total;
  };
  const auto before = mac_drops_on_path();
  host.ping({a::princeton(), 5}, forged, 0);
  net.sim().run_for(kSecond);
  EXPECT_TRUE(host.rtts.empty());
  EXPECT_EQ(mac_drops_on_path(), before + 1);
}

TEST_F(ScieraFixture, WrongIngressIsDropped) {
  auto& net = ScieraFixture::net();
  // Craft a packet that claims a path via one BRIDGES interface but is
  // checked against the hop field of another: take a valid UVa->Princeton
  // path and ping; then break by swapping two UVa up-segments' first hops.
  const auto paths = net.paths(a::uva(), a::princeton());
  ASSERT_GE(paths.size(), 2u);
  // Splice: use path0 but replace its first hop field with path1's (a
  // different UVa uplink): MACs are valid per-hop, but the ingress at
  // BRIDGES no longer matches the link the packet arrives on.
  Path spliced = paths[0];
  if (paths[1].dataplane_path.hops[0] == spliced.dataplane_path.hops[0]) {
    GTEST_SKIP() << "paths share the first hop";
  }
  spliced.dataplane_path.hops[0] = paths[1].dataplane_path.hops[0];
  spliced.dataplane_path.info[0].seg_id = paths[1].dataplane_path.info[0].seg_id;
  EchoHost host{net, {a::uva(), 0x0A000001}};
  host.ping({a::princeton(), 5}, spliced, 0);
  net.sim().run_for(kSecond);
  EXPECT_TRUE(host.rtts.empty());
}

TEST_F(ScieraFixture, ControlServiceCachesLookups) {
  auto& net = ScieraFixture::net();
  auto* cs = net.control_service_set(a::sidn())->primary();
  ASSERT_NE(cs, nullptr);
  const PathSet first = cs->lookup_paths_now(a::ufms());
  EXPECT_FALSE(first->empty());
  // The second lookup is a cache hit: the same shared set, not a
  // recombination.
  const std::uint64_t hits = cs->cache_hits();
  const std::uint64_t misses = cs->cache_misses();
  const PathSet second = cs->lookup_paths_now(a::ufms());
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(cs->cache_hits(), hits + 1);
  EXPECT_EQ(cs->cache_misses(), misses);
}

// Regression: ControlService treated an entry aged exactly its cache TTL as
// stale while the daemon treated it as fresh. The shared convention is
// "stale at age >= ttl" — this pins the control-service side.
TEST_F(ScieraFixture, ControlServiceCacheEntryAgedExactlyTtlIsStale) {
  auto& net = ScieraFixture::net();
  auto* cs = net.control_service_set(a::ufms())->primary();
  ASSERT_NE(cs, nullptr);
  cs->flush_cache();
  const auto misses0 = cs->cache_misses();
  const auto hits0 = cs->cache_hits();
  (void)cs->lookup_paths_now(a::uva());
  EXPECT_EQ(cs->cache_misses() - misses0, 1u);
  (void)cs->lookup_paths_now(a::uva());
  EXPECT_EQ(cs->cache_hits() - hits0, 1u);
  // Exactly the TTL later the entry must be refetched, not served.
  net.sim().run_for(ControlService::kCacheTtl);
  (void)cs->lookup_paths_now(a::uva());
  EXPECT_EQ(cs->cache_misses() - misses0, 2u);
  EXPECT_EQ(cs->cache_hits() - hits0, 1u);
}

TEST_F(ScieraFixture, TrcAvailableFromControlService) {
  auto& net = ScieraFixture::net();
  auto* cs = net.control_service_set(a::uva())->primary();
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(cs->local_trc(), nullptr);
  EXPECT_EQ(cs->local_trc()->isd, 71);
  EXPECT_TRUE(cs->local_trc()->verify_base().ok());
}

// Perturbed-insertion-order regression for the analyzer's determinism
// contract: services_ is an ordered map populated lazily in first-lookup
// order, and the beaconing/healing sweeps walk it. Whatever order hosts
// first touch their control services, the executed schedule must come
// out identical — and each ordering must itself replay bit-identically
// under simnet::audit_determinism.
TEST(ControlPlane, ServiceLookupOrderDoesNotPerturbSchedule) {
  const auto scenario = [](bool reversed) {
    return [reversed]() -> simnet::ScheduleDigest {
      ScionNetwork::Options options;
      options.healing.enabled = true;
      options.healing.refresh_interval = 500 * kMillisecond;
      options.healing.segment_lifetime = 1500 * kMillisecond;
      options.healing.detection_delay = 100 * kMillisecond;
      ScionNetwork net{topology::build_sciera(), options};
      std::vector<IsdAs> order = {a::uva(), a::princeton(), a::kisti_dj(),
                                  a::geant(), a::rnp()};
      if (reversed) std::reverse(order.begin(), order.end());
      for (const IsdAs ia : order) {
        EXPECT_NE(net.control_service_set(ia), nullptr) << ia.to_string();
      }
      net.set_link_up("kisti-sg-kaust", false);
      net.sim().run_until(2 * kSecond);
      net.set_link_up("kisti-sg-kaust", true);
      net.sim().run_until(4 * kSecond);
      return net.sim().schedule_digest();
    };
  };
  const auto forward = simnet::audit_determinism(scenario(false));
  EXPECT_TRUE(forward.deterministic()) << forward.to_string();
  const auto reversed = simnet::audit_determinism(scenario(true));
  EXPECT_TRUE(reversed.deterministic()) << reversed.to_string();
  EXPECT_TRUE(forward.first == reversed.first)
      << "lookup order leaked into the schedule: forward "
      << forward.to_string() << " vs reversed " << reversed.to_string();
}

}  // namespace
}  // namespace sciera::controlplane
