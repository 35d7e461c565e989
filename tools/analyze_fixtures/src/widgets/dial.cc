// Golden fixture for own-header-first, suppressed. Scanned, never
// compiled; line numbers are pinned by expected.json.
#include <vector>  // NOLINT(own-header-first) fixture

#include "widgets/dial.h"
