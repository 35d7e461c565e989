// Golden fixture: the owning-buffer abstraction in src/common/buffer.*
// is the one user of raw array new allowed, so nothing here may be
// flagged. Scanned, never compiled.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fixtures {

inline std::uint8_t* allocate(std::size_t n) { return new std::uint8_t[n]; }

}  // namespace fixtures
