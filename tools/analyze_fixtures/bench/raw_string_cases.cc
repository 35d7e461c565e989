// Golden fixture for bench/: wall-clock-seed applies here but
// unseeded-rng (src/ only) does not, a .cc may use a using-directive,
// and a banned name inside a multi-line raw string is text, not a call.
// Scanned, never compiled; line numbers are pinned by expected.json.
#include <random>

using namespace std::literals;

namespace fixtures {

unsigned entropy_in_bench() { return std::random_device{}(); }

const char* const kUsage = R"(usage: fixture
  seed = rand();
)";

}  // namespace fixtures
