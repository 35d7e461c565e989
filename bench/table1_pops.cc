// Table 1: SCIERA PoPs and collaborating networks, cross-checked against
// the topology's geography.
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header("Table 1 — SCIERA PoPs and collaborating networks",
                      "16 PoPs across five continents, anchored by GEANT "
                      "and KREONET's global footprints");

  const auto pops = topology::sciera_pops();
  std::printf("%-18s %-20s %-26s\n", "Location", "Peering NRENs",
              "Partner Networks");
  for (const auto& pop : pops) {
    std::printf("%-18s %-20s %-26s\n", pop.location.c_str(),
                pop.peering_nrens.c_str(), pop.partner_networks.c_str());
  }
  std::printf("\n");

  int geant = 0, kreonet = 0;
  for (const auto& pop : pops) {
    if (pop.peering_nrens.find("GEANT") != std::string::npos) ++geant;
    if (pop.peering_nrens.find("KREONET") != std::string::npos) ++kreonet;
  }
  std::printf("PoPs: %zu | with GEANT: %d | with KREONET: %d\n\n", pops.size(),
              geant, kreonet);

  bench::print_check(pops.size() == 16, "16 PoPs as in Table 1");
  bench::print_check(geant >= 7 && kreonet >= 5,
                     "the two Tier-1 footprints anchor most PoPs");
  return bench::exit_code();
}
