// Golden fixture (regression): simnet-layering reads real includes only.
// An upper-layer include inside a block comment is documentation and is
// not flagged. Scanned, never compiled.
#pragma once

/* Removed when the event core stopped calling beaconing directly:
#include "controlplane/beaconing.h"
*/
#include "simnet/simulator.h"
