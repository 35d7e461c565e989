// Golden fixture for pragma-once: this header has no include guard, so
// the analyzer reports it at line 1. Scanned, never compiled.

namespace fixtures {

inline int unguarded() { return 0; }

}  // namespace fixtures
