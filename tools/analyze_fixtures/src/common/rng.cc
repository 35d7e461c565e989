// Golden fixture: src/common/rng.cc is the one file that may read the
// wall clock (wall-clock-seed) and name std engines (unseeded-rng), so
// nothing here may be flagged. Scanned, never compiled.
#include <ctime>
#include <random>

namespace fixtures {

unsigned entropy_seed() {
  return static_cast<unsigned>(time(nullptr)) ^ std::random_device{}();
}

}  // namespace fixtures
