// Golden fixture for own-header-first: gauge.h exists beside this file,
// so the first #include must be it. Scanned, never compiled; line
// numbers are pinned by expected.json.
#include <string>

#include "widgets/gauge.h"
