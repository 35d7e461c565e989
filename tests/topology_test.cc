#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "topology/parser.h"
#include "topology/sciera_net.h"
#include "topology/topology.h"

namespace sciera::topology {
namespace {

namespace a = ases;

TEST(Topology, AddAsRejectsDuplicates) {
  Topology topo;
  AsInfo info;
  info.ia = a::geant();
  EXPECT_TRUE(topo.add_as(info).ok());
  EXPECT_FALSE(topo.add_as(info).ok());
}

TEST(Topology, AddLinkAssignsDistinctIfaceIds) {
  Topology topo;
  for (auto ia : {a::geant(), a::bridges(), a::switch71()}) {
    AsInfo info;
    info.ia = ia;
    ASSERT_TRUE(topo.add_as(info).ok());
  }
  auto l1 = topo.add_link("l1", a::geant(), a::bridges(), LinkType::kCore,
                          kMillisecond);
  auto l2 = topo.add_link("l2", a::geant(), a::switch71(), LinkType::kCore,
                          kMillisecond);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  const auto* link1 = topo.find_link(*l1);
  const auto* link2 = topo.find_link(*l2);
  EXPECT_NE(link1->a_iface, link2->a_iface);  // both on GEANT's side
  EXPECT_NE(link1->a_iface, 0);
}

TEST(Topology, AddLinkValidatesEndpoints) {
  Topology topo;
  AsInfo info;
  info.ia = a::geant();
  ASSERT_TRUE(topo.add_as(info).ok());
  EXPECT_FALSE(
      topo.add_link("x", a::geant(), a::bridges(), LinkType::kCore, 1).ok());
  EXPECT_FALSE(
      topo.add_link("y", a::geant(), a::geant(), LinkType::kCore, 1).ok());
}

TEST(Topology, GreatCircleDistances) {
  // Frankfurt <-> Singapore is ~10,260 km.
  const double d = great_circle_km({50.11, 8.68}, {1.35, 103.82});
  EXPECT_NEAR(d, 10260, 150);
  // Symmetric and zero on the diagonal.
  EXPECT_DOUBLE_EQ(great_circle_km({50.11, 8.68}, {50.11, 8.68}), 0.0);
}

TEST(Topology, FiberDelayScalesWithDistance) {
  const Duration transatlantic = fiber_delay(6200);
  // ~6200km * 1.5 / 204 km/ms = ~45ms one way.
  EXPECT_NEAR(to_ms(transatlantic), 45.6, 2.0);
  // Co-located sites get the floor.
  EXPECT_EQ(fiber_delay(0), 150 * kMicrosecond);
}

TEST(ScieraNet, HasAllFigureOneAses) {
  const Topology topo = build_sciera();
  for (auto ia :
       {a::geant(), a::bridges(), a::switch71(), a::kisti_dj(), a::kisti_hk(),
        a::kisti_sg(), a::kisti_ams(), a::kisti_chg(), a::kisti_stl(),
        a::switch64(), a::eth(), a::sidn(), a::demokritos(), a::ovgu(),
        a::cybexer(), a::ccdcoe(), a::wacren(), a::uva(), a::princeton(),
        a::equinix(), a::fabric(), a::rnp(), a::ufms(), a::kaust(), a::sec(),
        a::nus(), a::korea_univ(), a::cityu()}) {
    EXPECT_NE(topo.find_as(ia), nullptr) << ia.to_string();
  }
  // UFPR is under construction and excluded by default.
  EXPECT_EQ(topo.find_as(a::ufpr()), nullptr);
  EXPECT_NE(build_sciera({.include_under_construction = true})
                .find_as(a::ufpr()),
            nullptr);
}

TEST(ScieraNet, CoreAsesMatchPaper) {
  const Topology topo = build_sciera();
  const auto cores71 = topo.core_ases(71);
  EXPECT_EQ(cores71.size(), 9u);  // GEANT, BRIDGES, SWITCH, 6x KISTI
  const auto cores64 = topo.core_ases(64);
  ASSERT_EQ(cores64.size(), 1u);
  EXPECT_EQ(cores64[0], a::switch64());
}

TEST(ScieraNet, TwoIsds) {
  const Topology topo = build_sciera();
  const auto isds = topo.isds();
  EXPECT_EQ(isds.size(), 2u);
}

TEST(ScieraNet, KreonetRingIsClosed) {
  const Topology topo = build_sciera();
  // Follow the ring labels end to end.
  const char* ring[] = {"kreonet-ams-chg", "kreonet-chg-stl", "kreonet-stl-dj",
                        "kreonet-dj-hk", "kreonet-hk-sg", "kreonet-sg-ams"};
  std::set<IsdAs> touched;
  for (const char* label : ring) {
    const auto* link = topo.find_link_by_label(label);
    ASSERT_NE(link, nullptr) << label;
    touched.insert(link->a);
    touched.insert(link->b);
  }
  EXPECT_EQ(touched.size(), 6u);
}

TEST(ScieraNet, FourSingaporeAmsterdamChannels) {
  // Section 3.2: KREONET ring + CAE-1 + KAUST I & II.
  const Topology topo = build_sciera();
  int channels = 0;
  for (const auto& link : topo.links()) {
    if ((link.a == a::kisti_sg() && link.b == a::kisti_ams()) ||
        (link.a == a::kisti_ams() && link.b == a::kisti_sg())) {
      ++channels;
    }
  }
  EXPECT_EQ(channels, 4);
}

TEST(ScieraNet, MeasurementAsesMatchRegionalSplit) {
  const Topology topo = build_sciera();
  const auto mps = measurement_ases();
  EXPECT_EQ(mps.size(), 11u);
  for (auto ia : mps) {
    const auto* info = topo.find_as(ia);
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->measurement_point) << ia.to_string();
  }
}

TEST(ScieraNet, PathMatrixAsesMatchFigure8) {
  const auto ms = path_matrix_ases();
  ASSERT_EQ(ms.size(), 9u);
  EXPECT_EQ(ms.front(), a::ufms());
  EXPECT_EQ(ms.back(), a::geant());
}

TEST(ScieraNet, PopsMatchTable1) {
  const auto pops = sciera_pops();
  EXPECT_EQ(pops.size(), 16u);
  EXPECT_EQ(pops.front().location, "Amsterdam, NL");
  EXPECT_EQ(pops.back().location, "Singapore, SG");
}

TEST(ScieraNet, EveryAsReachableFromGeant) {
  // Sanity: the link graph is connected (ignoring link types).
  const Topology topo = build_sciera();
  std::set<IsdAs> seen{a::geant()};
  std::vector<IsdAs> frontier{a::geant()};
  while (!frontier.empty()) {
    const IsdAs cur = frontier.back();
    frontier.pop_back();
    for (LinkId id : topo.links_of(cur)) {
      const IsdAs next = topo.find_link(id)->other(cur);
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  EXPECT_EQ(seen.size(), topo.ases().size());
}

// links_of reads a per-AS adjacency list that add_link fills: the same
// ids, in the same order, as a scan of every link, and nothing for an AS
// the topology does not know.
TEST(Topology, LinksOfMatchesAScanOfEveryLink) {
  const Topology topo = build_sciera();
  for (const auto& as_info : topo.ases()) {
    std::vector<LinkId> scanned;
    for (const auto& link : topo.links()) {
      if (link.a == as_info.ia || link.b == as_info.ia) {
        scanned.push_back(link.id);
      }
    }
    const auto links = topo.links_of(as_info.ia);
    EXPECT_EQ(std::vector<LinkId>(links.begin(), links.end()), scanned)
        << as_info.ia.to_string();
  }
  EXPECT_TRUE(topo.links_of(IsdAs{99, As{1}}).empty());
}

TEST(ScieraNet, TransoceanicDelaysAreRealistic) {
  const Topology topo = build_sciera();
  const auto* transatlantic = topo.find_link_by_label("geant-bridges");
  ASSERT_NE(transatlantic, nullptr);
  EXPECT_GT(to_ms(transatlantic->delay), 30.0);
  EXPECT_LT(to_ms(transatlantic->delay), 70.0);
  const auto* sg_ams = topo.find_link_by_label("kreonet-sg-ams");
  ASSERT_NE(sg_ams, nullptr);
  EXPECT_GT(to_ms(sg_ams->delay), 60.0);
  EXPECT_LT(to_ms(sg_ams->delay), 110.0);
}

TEST(TopologyParser, RoundTripsSciera) {
  const Topology original = build_sciera();
  const std::string text = serialize(original);
  const auto reparsed = parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  const Topology& copy = reparsed.value();
  ASSERT_EQ(copy.ases().size(), original.ases().size());
  ASSERT_EQ(copy.links().size(), original.links().size());
  for (std::size_t i = 0; i < original.ases().size(); ++i) {
    EXPECT_EQ(copy.ases()[i].ia, original.ases()[i].ia);
    EXPECT_EQ(copy.ases()[i].name, original.ases()[i].name);
    EXPECT_EQ(copy.ases()[i].core, original.ases()[i].core);
  }
  for (std::size_t i = 0; i < original.links().size(); ++i) {
    EXPECT_EQ(copy.links()[i].label, original.links()[i].label);
    EXPECT_EQ(copy.links()[i].a_iface, original.links()[i].a_iface);
    EXPECT_EQ(copy.links()[i].b_iface, original.links()[i].b_iface);
    EXPECT_EQ(copy.links()[i].type, original.links()[i].type);
    EXPECT_EQ(copy.links()[i].encap, original.links()[i].encap);
    // Delay round-trips at microsecond resolution.
    EXPECT_NEAR(static_cast<double>(copy.links()[i].delay),
                static_cast<double>(original.links()[i].delay),
                static_cast<double>(kMicrosecond));
  }
}

TEST(TopologyParser, RejectsMalformedInput) {
  EXPECT_FALSE(parse("bogus 1 2 3").ok());
  EXPECT_FALSE(parse("as not-an-ia").ok());
  EXPECT_FALSE(parse("as 71-1\nlink \"l\" 71-1 71-2 core").ok());  // unknown AS
  EXPECT_FALSE(parse("as 71-1\nas 71-2\nlink \"l\" 71-1 71-2 warp").ok());
  EXPECT_FALSE(parse("as 71-1 name=\"unterminated").ok());
}

TEST(TopologyParser, CommentsAndBlankLinesIgnored)
{
  const auto topo = parse("# header\n\n  as 64-559 core name=\"S\"  # trail\n");
  ASSERT_TRUE(topo.ok()) << topo.error().to_string();
  EXPECT_EQ(topo->ases().size(), 1u);
  EXPECT_TRUE(topo->ases()[0].core);
}

TEST(Topology, AsForIfaceResolvesNeighbors) {
  const Topology topo = build_sciera();
  const auto* link = topo.find_link_by_label("geant-bridges");
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(topo.link_at(a::geant(), link->a_iface)->other(a::geant()),
            a::bridges());
  EXPECT_EQ(topo.link_at(a::bridges(), link->b_iface)->other(a::bridges()),
            a::geant());
  EXPECT_EQ(topo.link_at(a::geant(), 9999), nullptr);
}

// link_at walks the AS's own adjacency list; it must find what a scan of
// every link finds first, for every interface of every SCIERA AS, and
// nothing for an interface the AS does not have.
TEST(Topology, LinkAtMatchesAFullScan) {
  const Topology topo = build_sciera();
  const auto scan = [&topo](IsdAs ia, IfaceId iface) -> const LinkInfo* {
    for (const auto& link : topo.links()) {
      if ((link.a == ia && link.a_iface == iface) ||
          (link.b == ia && link.b_iface == iface)) {
        return &link;
      }
    }
    return nullptr;
  };
  std::size_t found = 0;
  for (const auto& as_info : topo.ases()) {
    IfaceId top = 0;
    for (const auto& link : topo.links()) {
      if (link.a == as_info.ia) top = std::max(top, link.a_iface);
      if (link.b == as_info.ia) top = std::max(top, link.b_iface);
    }
    for (IfaceId iface = 0; iface <= top; ++iface) {
      const LinkInfo* link = topo.link_at(as_info.ia, iface);
      EXPECT_EQ(link, scan(as_info.ia, iface))
          << as_info.ia.to_string() << " iface " << iface;
      if (link != nullptr) ++found;
    }
    EXPECT_EQ(topo.link_at(as_info.ia, static_cast<IfaceId>(top + 1)),
              nullptr);
  }
  EXPECT_EQ(found, 2 * topo.links().size());
}

TEST(Topology, ChildrenOfGeant) {
  const Topology topo = build_sciera();
  const auto kids = topo.children_of(a::geant());
  // SIDN, Demokritos, OVGU, CybExer, CCDCoE, WACREN (x2 links -> listed
  // twice), RNP, KAUST.
  std::set<IsdAs> unique(kids.begin(), kids.end());
  EXPECT_TRUE(unique.contains(a::sidn()));
  EXPECT_TRUE(unique.contains(a::rnp()));
  EXPECT_TRUE(unique.contains(a::kaust()));
  EXPECT_FALSE(unique.contains(a::uva()));
}


TEST(ScieraNet, SecCircuitIsVxlan) {
  // Appendix C: SEC could only get a VXLAN over SingAREN.
  const Topology topo = build_sciera();
  const auto* sec_link = topo.find_link_by_label("kisti-sg-sec");
  ASSERT_NE(sec_link, nullptr);
  EXPECT_EQ(sec_link->encap, Encap::kVxlan);
  EXPECT_EQ(encap_overhead(Encap::kVxlan), 50u);
  EXPECT_EQ(encap_overhead(Encap::kVlan), 4u);
  // Everything else defaults to plain VLANs.
  const auto* other = topo.find_link_by_label("geant-sidn");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->encap, Encap::kVlan);
}

TEST(TopologyParser, EncapRoundTripsAndRejectsUnknown) {
  Topology topo;
  AsInfo a1, a2;
  a1.ia = IsdAs::parse("71-1").value();
  a2.ia = IsdAs::parse("71-2").value();
  ASSERT_TRUE(topo.add_as(a1).ok());
  ASSERT_TRUE(topo.add_as(a2).ok());
  ASSERT_TRUE(topo.add_link("t", a1.ia, a2.ia, LinkType::kCore, kMillisecond).ok());
  ASSERT_TRUE(topo.set_link_encap("t", Encap::kMpls).ok());
  EXPECT_FALSE(topo.set_link_encap("missing", Encap::kMpls).ok());
  const auto reparsed = parse(serialize(topo));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->links()[0].encap, Encap::kMpls);
  EXPECT_FALSE(
      parse("as 71-1\nas 71-2\nlink \"l\" 71-1 71-2 core encap=warp").ok());
}

}  // namespace
}  // namespace sciera::topology
