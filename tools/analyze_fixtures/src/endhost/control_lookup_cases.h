// Golden fixture for direct-control-lookup, armed only under
// src/endhost/: end-host lookups go through the replicated
// ControlServiceSet. Scanned, never compiled; line numbers are pinned by
// expected.json.
#pragma once

namespace fixtures {

inline void positive_direct_lookup(Net& net) { net.control_service(0); }
inline void suppressed_direct_lookup(Net& net) {
  net.control_service(1);  // NOLINT(direct-control-lookup) fixture
}
// The replicated set is the sanctioned path and is not flagged.
inline void replicated_lookup(Net& net) { net.control_service_set(0); }

}  // namespace fixtures
