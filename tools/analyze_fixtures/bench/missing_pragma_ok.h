// NOLINT(pragma-once) fixture: the suppressed pragma-once case.
// Scanned, never compiled.

namespace fixtures {

inline int unguarded_ok() { return 0; }

}  // namespace fixtures
