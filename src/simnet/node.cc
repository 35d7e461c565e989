#include "simnet/node.h"

// node.h is header-only; this translation unit proves it self-contained.
