// The concrete SCIERA deployment of Figure 1 / Table 1: every AS, link,
// PoP, and measurement vantage point of the paper, with propagation delays
// derived from the real PoP city coordinates.
#pragma once

#include <string>
#include <vector>

#include "topology/topology.h"

namespace sciera::topology {

struct ScieraOptions {
  // Include links marked "under construction" in Figure 1 (UFPR).
  bool include_under_construction = false;
};

// Builds the full SCIERA topology (ISD 71 plus the two ISD-64 ASes
// reachable via SWITCH).
[[nodiscard]] Topology build_sciera(const ScieraOptions& options = {});

// Well-known ISD-AS handles, parsed from the paper's identifiers.
namespace ases {
IsdAs geant();        // 71-20965, core (Frankfurt)
IsdAs bridges();      // 71-2:0:35, core (McLean)
IsdAs switch71();     // 71-559, core (Geneva)
IsdAs kisti_dj();     // 71-2:0:3b, core (Daejeon)
IsdAs kisti_hk();     // 71-2:0:3c, core (Hong Kong)
IsdAs kisti_sg();     // 71-2:0:3d, core (Singapore)
IsdAs kisti_ams();    // 71-2:0:3e, core (Amsterdam)
IsdAs kisti_chg();    // 71-2:0:3f, core (Chicago)
IsdAs kisti_stl();    // 71-2:0:40, core (Seattle)
IsdAs switch64();     // 64-559, core of the Swiss ISD
IsdAs eth();          // 64-2:0:9
IsdAs sidn();         // 71-1140
IsdAs demokritos();   // 71-2546
IsdAs ovgu();         // 71-2:0:42
IsdAs cybexer();      // 71-2:0:49
IsdAs ccdcoe();       // 71-203311
IsdAs wacren();       // 71-37288
IsdAs uva();          // 71-225
IsdAs princeton();    // 71-88
IsdAs equinix();      // 71-2:0:48
IsdAs fabric();       // 71-398900
IsdAs rnp();          // 71-1916
IsdAs ufms();         // 71-2:0:5c
IsdAs ufpr();         // 71-10881 (under construction)
IsdAs kaust();        // 71-50999
IsdAs sec();          // 71-2:0:18
IsdAs nus();          // 71-2:0:61
IsdAs korea_univ();   // 71-2:0:4a
IsdAs cityu();        // 71-4158
}  // namespace ases

// The 11 ASes running scion-go-multiping (5 EU, 2 Asia, 3 NA, 1 SA).
[[nodiscard]] std::vector<IsdAs> measurement_ases();

// The 9 ASes of the Figure 8/9 path matrices, in the figure's row order.
[[nodiscard]] std::vector<IsdAs> path_matrix_ases();

// Table 1: SCIERA PoPs and collaborating networks.
struct PopInfo {
  std::string location;
  std::string peering_nrens;
  std::string partner_networks;
};
[[nodiscard]] std::vector<PopInfo> sciera_pops();

}  // namespace sciera::topology
