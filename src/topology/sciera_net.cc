#include "topology/sciera_net.h"

#include <cassert>

namespace sciera::topology {
namespace {

IsdAs must_parse(std::string_view text) {
  const auto ia = IsdAs::parse(text);
  assert(ia.has_value());
  return *ia;
}

// PoP city coordinates (approximate, for propagation-delay modelling).
constexpr GeoPoint kAmsterdam{52.37, 4.90};
constexpr GeoPoint kAshburn{39.04, -77.49};
constexpr GeoPoint kChicago{41.88, -87.63};
constexpr GeoPoint kDaejeon{36.35, 127.38};
constexpr GeoPoint kFrankfurt{50.11, 8.68};
constexpr GeoPoint kGeneva{46.20, 6.14};
constexpr GeoPoint kHongKong{22.32, 114.17};
constexpr GeoPoint kJeddah{21.49, 39.19};
constexpr GeoPoint kMcLean{38.93, -77.18};
constexpr GeoPoint kSeattle{47.61, -122.33};
constexpr GeoPoint kSingapore{1.35, 103.82};
constexpr GeoPoint kZurich{47.38, 8.54};
constexpr GeoPoint kSeoul{37.57, 126.98};
constexpr GeoPoint kCampoGrande{-20.44, -54.65};
constexpr GeoPoint kSaoPaulo{-23.55, -46.63};
constexpr GeoPoint kCuritiba{-25.43, -49.27};
constexpr GeoPoint kCharlottesville{38.03, -78.48};
constexpr GeoPoint kPrinceton{40.35, -74.66};
constexpr GeoPoint kMagdeburg{52.13, 11.62};
constexpr GeoPoint kTallinn{59.44, 24.75};
constexpr GeoPoint kAthens{37.98, 23.73};
constexpr GeoPoint kArnhem{51.98, 5.91};
constexpr GeoPoint kAccra{5.60, -0.19};

Duration city_delay(const GeoPoint& a, const GeoPoint& b) {
  return fiber_delay(great_circle_km(a, b));
}

struct AsSpec {
  const char* ia;
  const char* name;
  const char* city;
  GeoPoint location;
  bool core;
  bool measurement;
};

constexpr double kCoreBw = 100e9;
constexpr double kRingBw = 20e9;  // "KREONET SCIONabled a 20 Gbps ring"
constexpr double kLeafBw = 10e9;

}  // namespace

namespace ases {
IsdAs geant() { return must_parse("71-20965"); }
IsdAs bridges() { return must_parse("71-2:0:35"); }
IsdAs switch71() { return must_parse("71-559"); }
IsdAs kisti_dj() { return must_parse("71-2:0:3b"); }
IsdAs kisti_hk() { return must_parse("71-2:0:3c"); }
IsdAs kisti_sg() { return must_parse("71-2:0:3d"); }
IsdAs kisti_ams() { return must_parse("71-2:0:3e"); }
IsdAs kisti_chg() { return must_parse("71-2:0:3f"); }
IsdAs kisti_stl() { return must_parse("71-2:0:40"); }
IsdAs switch64() { return must_parse("64-559"); }
IsdAs eth() { return must_parse("64-2:0:9"); }
IsdAs sidn() { return must_parse("71-1140"); }
IsdAs demokritos() { return must_parse("71-2546"); }
IsdAs ovgu() { return must_parse("71-2:0:42"); }
IsdAs cybexer() { return must_parse("71-2:0:49"); }
IsdAs ccdcoe() { return must_parse("71-203311"); }
IsdAs wacren() { return must_parse("71-37288"); }
IsdAs uva() { return must_parse("71-225"); }
IsdAs princeton() { return must_parse("71-88"); }
IsdAs equinix() { return must_parse("71-2:0:48"); }
IsdAs fabric() { return must_parse("71-398900"); }
IsdAs rnp() { return must_parse("71-1916"); }
IsdAs ufms() { return must_parse("71-2:0:5c"); }
IsdAs ufpr() { return must_parse("71-10881"); }
IsdAs kaust() { return must_parse("71-50999"); }
IsdAs sec() { return must_parse("71-2:0:18"); }
IsdAs nus() { return must_parse("71-2:0:61"); }
IsdAs korea_univ() { return must_parse("71-2:0:4a"); }
IsdAs cityu() { return must_parse("71-4158"); }
}  // namespace ases

Topology build_sciera(const ScieraOptions& options) {
  Topology topo;

  const AsSpec specs[] = {
      // Core ASes (Tier-1 providers).
      {"71-20965", "GEANT", "Frankfurt", kFrankfurt, true, true},
      {"71-2:0:35", "BRIDGES", "McLean", kMcLean, true, false},
      {"71-559", "SWITCH", "Geneva", kGeneva, true, true},
      {"71-2:0:3b", "KISTI DJ", "Daejeon", kDaejeon, true, true},
      {"71-2:0:3c", "KISTI HK", "Hong Kong", kHongKong, true, false},
      {"71-2:0:3d", "KISTI SG", "Singapore", kSingapore, true, true},
      {"71-2:0:3e", "KISTI AMS", "Amsterdam", kAmsterdam, true, true},
      {"71-2:0:3f", "KISTI CHG", "Chicago", kChicago, true, true},
      {"71-2:0:40", "KISTI STL", "Seattle", kSeattle, true, false},
      // Swiss ISD (connected via SWITCH; early SCION adopters).
      {"64-559", "SWITCH (ISD 64)", "Zurich", kZurich, true, false},
      {"64-2:0:9", "ETH Zurich", "Zurich", kZurich, false, false},
      // European leaves.
      {"71-1140", "SIDN Labs", "Arnhem", kArnhem, false, true},
      {"71-2546", "NCSR Demokritos", "Athens", kAthens, false, false},
      {"71-2:0:42", "OVGU Magdeburg", "Magdeburg", kMagdeburg, false, true},
      {"71-2:0:49", "CybExer", "Tallinn", kTallinn, false, false},
      {"71-203311", "CCDCoE", "Tallinn", kTallinn, false, false},
      // Africa.
      {"71-37288", "WACREN", "Accra", kAccra, false, false},
      // North America.
      {"71-225", "UVa", "Charlottesville", kCharlottesville, false, true},
      {"71-88", "Princeton", "Princeton", kPrinceton, false, false},
      {"71-2:0:48", "Equinix", "Ashburn", kAshburn, false, true},
      {"71-398900", "FABRIC", "McLean", kMcLean, false, false},
      // South America.
      {"71-1916", "RNP", "Sao Paulo", kSaoPaulo, false, false},
      {"71-2:0:5c", "UFMS", "Campo Grande", kCampoGrande, false, true},
      {"71-10881", "UFPR", "Curitiba", kCuritiba, false, false},
      // Asia / Middle East leaves.
      {"71-50999", "KAUST", "Jeddah", kJeddah, false, false},
      {"71-2:0:18", "SEC", "Singapore", kSingapore, false, false},
      {"71-2:0:61", "NUS", "Singapore", kSingapore, false, false},
      {"71-2:0:4a", "Korea University", "Seoul", kSeoul, false, true},
      {"71-4158", "CityU HK", "Hong Kong", kHongKong, false, false},
  };
  for (const auto& spec : specs) {
    if (!options.include_under_construction &&
        must_parse(spec.ia) == ases::ufpr()) {
      continue;
    }
    AsInfo info;
    info.ia = must_parse(spec.ia);
    info.name = spec.name;
    info.city = spec.city;
    info.location = spec.location;
    info.core = spec.core;
    info.measurement_point = spec.measurement;
    const auto status = topo.add_as(std::move(info));
    assert(status.ok());
    (void)status;
  }

  struct LinkSpec {
    const char* label;
    IsdAs a, b;
    LinkType type;
    GeoPoint ga, gb;
    double bw;
    bool under_construction = false;
  };
  using enum LinkType;
  namespace a = ases;
  const LinkSpec link_specs[] = {
      // --- Core mesh: Europe.
      {"geant-switch71", a::geant(), a::switch71(), kCore, kFrankfurt, kGeneva, kCoreBw},
      {"geant-kisti-ams", a::geant(), a::kisti_ams(), kCore, kFrankfurt, kAmsterdam, kCoreBw},
      {"switch71-switch64", a::switch71(), a::switch64(), kCore, kGeneva, kZurich, kCoreBw},
      // --- Transatlantic / transpacific core.
      {"geant-bridges", a::geant(), a::bridges(), kCore, kFrankfurt, kMcLean, kCoreBw},
      // The additional EU<->US circuits that became available during the
      // measurement campaign (Section 5.4 / Figure 7).
      {"geant-bridges-2", a::geant(), a::bridges(), kCore, kFrankfurt, kMcLean, kCoreBw},
      {"kisti-ams-bridges", a::kisti_ams(), a::bridges(), kCore, kAmsterdam, kMcLean, kCoreBw},
      {"geant-kisti-sg", a::geant(), a::kisti_sg(), kCore, kFrankfurt, kSingapore, kCoreBw},
      {"bridges-kisti-chg", a::bridges(), a::kisti_chg(), kCore, kMcLean, kChicago, kCoreBw},
      // --- KREONET northern-hemisphere ring (20 Gbps, Section 4.7.1):
      // Amsterdam - Chicago - Seattle - Daejeon - Hong Kong - Singapore - Amsterdam.
      {"kreonet-ams-chg", a::kisti_ams(), a::kisti_chg(), kCore, kAmsterdam, kChicago, kRingBw},
      {"kreonet-chg-stl", a::kisti_chg(), a::kisti_stl(), kCore, kChicago, kSeattle, kRingBw},
      {"kreonet-stl-dj", a::kisti_stl(), a::kisti_dj(), kCore, kSeattle, kDaejeon, kRingBw},
      {"kreonet-dj-hk", a::kisti_dj(), a::kisti_hk(), kCore, kDaejeon, kHongKong, kRingBw},
      {"kreonet-hk-sg", a::kisti_hk(), a::kisti_sg(), kCore, kHongKong, kSingapore, kRingBw},
      {"kreonet-sg-ams", a::kisti_sg(), a::kisti_ams(), kCore, kSingapore, kAmsterdam, kRingBw},
      // Parallel Singapore<->Amsterdam channels: CAE-1 and KAUST I & II
      // ("leading to four distinct paths", Section 3.2).
      {"cae1-sg-ams", a::kisti_sg(), a::kisti_ams(), kCore, kSingapore, kAmsterdam, kCoreBw},
      {"kaust1-sg-ams", a::kisti_sg(), a::kisti_ams(), kCore, kSingapore, kAmsterdam, kCoreBw},
      {"kaust2-sg-ams", a::kisti_sg(), a::kisti_ams(), kCore, kSingapore, kAmsterdam, kCoreBw},
      // --- European leaves on GEANT (GEANT Plus L2 circuits).
      {"geant-sidn", a::geant(), a::sidn(), kParentChild, kFrankfurt, kArnhem, kLeafBw},
      {"geant-demokritos", a::geant(), a::demokritos(), kParentChild, kFrankfurt, kAthens, kLeafBw},
      {"geant-ovgu", a::geant(), a::ovgu(), kParentChild, kFrankfurt, kMagdeburg, kLeafBw},
      {"geant-cybexer", a::geant(), a::cybexer(), kParentChild, kFrankfurt, kTallinn, kLeafBw},
      {"geant-ccdcoe", a::geant(), a::ccdcoe(), kParentChild, kFrankfurt, kTallinn, kLeafBw},
      // WACREN: two VLANs between GEANT and WACREN@London (Section 3.2).
      {"geant-wacren-1", a::geant(), a::wacren(), kParentChild, kFrankfurt, kAccra, kLeafBw},
      {"geant-wacren-2", a::geant(), a::wacren(), kParentChild, kFrankfurt, kAccra, kLeafBw},
      // ETH hangs off the Swiss ISD core.
      {"switch64-eth", a::switch64(), a::eth(), kParentChild, kZurich, kZurich, kLeafBw},
      // --- North America: institutions via BRIDGES / Internet2 VLANs.
      {"bridges-uva", a::bridges(), a::uva(), kParentChild, kMcLean, kCharlottesville, kLeafBw},
      {"bridges-uva-2", a::bridges(), a::uva(), kParentChild, kMcLean, kCharlottesville, kLeafBw},
      {"bridges-princeton", a::bridges(), a::princeton(), kParentChild, kMcLean, kPrinceton, kLeafBw},
      {"bridges-equinix", a::bridges(), a::equinix(), kParentChild, kMcLean, kAshburn, kLeafBw},
      {"bridges-fabric", a::bridges(), a::fabric(), kParentChild, kMcLean, kMcLean, kLeafBw},
      // Internet2 AL2S multipoint VLAN peering (Appendix C).
      {"i2-uva-princeton", a::uva(), a::princeton(), kPeering, kCharlottesville, kPrinceton, kLeafBw},
      // --- South America: RNP dual-homed to GEANT and BRIDGES.
      {"geant-rnp", a::geant(), a::rnp(), kParentChild, kFrankfurt, kSaoPaulo, kLeafBw},
      {"bridges-rnp", a::bridges(), a::rnp(), kParentChild, kMcLean, kSaoPaulo, kLeafBw},
      {"rnp-ufms", a::rnp(), a::ufms(), kParentChild, kSaoPaulo, kCampoGrande, kLeafBw},
      {"rnp-ufms-2", a::rnp(), a::ufms(), kParentChild, kSaoPaulo, kCampoGrande, kLeafBw},
      {"rnp-ufpr", a::rnp(), a::ufpr(), kParentChild, kSaoPaulo, kCuritiba, kLeafBw, true},
      // --- Asia / Middle East leaves.
      {"kisti-sg-sec", a::kisti_sg(), a::sec(), kParentChild, kSingapore, kSingapore, kLeafBw},
      {"kisti-sg-nus", a::kisti_sg(), a::nus(), kParentChild, kSingapore, kSingapore, kLeafBw},
      {"sec-nus-peering", a::sec(), a::nus(), kPeering, kSingapore, kSingapore, kLeafBw},
      {"kisti-dj-korea-univ", a::kisti_dj(), a::korea_univ(), kParentChild, kDaejeon, kSeoul, kLeafBw},
      {"kisti-dj-korea-univ-2", a::kisti_dj(), a::korea_univ(), kParentChild, kDaejeon, kSeoul, kLeafBw},
      {"kisti-hk-cityu", a::kisti_hk(), a::cityu(), kParentChild, kHongKong, kHongKong, kLeafBw},
      {"kisti-sg-kaust", a::kisti_sg(), a::kaust(), kParentChild, kSingapore, kJeddah, kLeafBw},
      {"geant-kaust", a::geant(), a::kaust(), kParentChild, kFrankfurt, kJeddah, kLeafBw},
  };

  for (const auto& spec : link_specs) {
    if (spec.under_construction && !options.include_under_construction) continue;
    auto id = topo.add_link(spec.label, spec.a, spec.b, spec.type,
                            city_delay(spec.ga, spec.gb), spec.bw);
    assert(id.ok());
    (void)id;
  }
  // "It was not possible in their case to establish a native VLAN ...
  // but only a VXLAN over SingAREN" (Appendix C).
  const auto encap_status = topo.set_link_encap("kisti-sg-sec", Encap::kVxlan);
  assert(encap_status.ok());
  (void)encap_status;

  return topo;
}

std::vector<IsdAs> measurement_ases() {
  namespace a = ases;
  return {
      // Europe (5)
      a::geant(), a::kisti_ams(), a::sidn(), a::ovgu(), a::switch71(),
      // Asia (2)
      a::kisti_dj(), a::korea_univ(),
      // North America (3)
      a::uva(), a::equinix(), a::kisti_chg(),
      // South America (1)
      a::ufms(),
  };
}

std::vector<IsdAs> path_matrix_ases() {
  namespace a = ases;
  // Row order of Figure 8, bottom to top reversed: the figure lists
  // 71-2:0:5c, 71-2:0:4a, 71-2:0:48, 71-2:0:3f, 71-2:0:3e, 71-2:0:3d,
  // 71-2:0:3b, 71-225, 71-20965.
  return {a::ufms(),      a::korea_univ(), a::equinix(),
          a::kisti_chg(), a::kisti_ams(),  a::kisti_sg(),
          a::kisti_dj(),  a::uva(),        a::geant()};
}

std::vector<PopInfo> sciera_pops() {
  return {
      {"Amsterdam, NL", "GEANT/KREONET", "Netherlight"},
      {"Ashburn, US", "BRIDGES", "Internet2/MARIA"},
      {"Chicago, US", "KREONET", "Internet2/StarLight"},
      {"Daejeon, KR", "KREONET", "KISTI"},
      {"Frankfurt, DE", "GEANT", ""},
      {"Geneva, CH", "GEANT", "CERN/SWITCH"},
      {"Hong Kong, HK", "KREONET", "CSTNet/HARNET"},
      {"Jacksonville, US", "RNP", "Internet2/AtlanticWave"},
      {"Jeddah, SA", "GEANT/KREONET", "KAUST"},
      {"Lisbon, PT", "GEANT/RNP", "RedCLARA"},
      {"London, GB", "GEANT/WACREN", "AfricaConnect"},
      {"Madrid, ES", "GEANT/RNP", "RedCLARA"},
      {"McLean, US", "BRIDGES", "Internet2/WIX"},
      {"Paris, FR", "GEANT", "SWITCH"},
      {"Seattle, US", "KREONET", "Internet2/PacificWave"},
      {"Singapore, SG", "GEANT/KREONET", "SingAREN"},
  };
}

}  // namespace sciera::topology
