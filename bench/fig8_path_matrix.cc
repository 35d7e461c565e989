// Figure 8: maximum number of active paths between the nine matrix ASes.
#include "bench_common.h"

using namespace sciera;

int main() {
  bench::print_header(
      "Figure 8 — maximum number of active paths between AS pairs",
      "at least 2 paths per pair; >100 for extreme pairs (UVa<->UFMS); "
      "Daejeon->Singapore has multiple options despite a single BGP path");

  bench::World world;
  const auto result = bench::run_standard_campaign(world);
  const auto ases = topology::path_matrix_ases();
  const auto matrix = analysis::path_matrices(result, ases);

  std::printf("%s\n", analysis::render_matrix(
                          ases, matrix.max_paths,
                          "max active paths (src row, dst column)")
                          .c_str());

  namespace a = topology::ases;
  auto cell = [&](IsdAs src, IsdAs dst) {
    for (std::size_t i = 0; i < ases.size(); ++i) {
      for (std::size_t j = 0; j < ases.size(); ++j) {
        if (ases[i] == src && ases[j] == dst) return matrix.max_paths[i][j];
      }
    }
    return -1;
  };

  int minimum = INT32_MAX, maximum = 0;
  for (std::size_t i = 0; i < ases.size(); ++i) {
    for (std::size_t j = 0; j < ases.size(); ++j) {
      if (i == j || matrix.max_paths[i][j] < 0) continue;
      minimum = std::min(minimum, matrix.max_paths[i][j]);
      maximum = std::max(maximum, matrix.max_paths[i][j]);
    }
  }
  std::printf("min %d, max %d across the matrix\n", minimum, maximum);
  std::printf("UVa -> UFMS: %d paths | DJ -> SG: %d paths | single BGP path "
              "DJ->SG: %s\n\n",
              cell(a::uva(), a::ufms()), cell(a::kisti_dj(), a::kisti_sg()),
              world.bgp.route(a::kisti_dj(), a::kisti_sg()) ? "yes" : "no");

  bench::print_check(minimum >= 2, "every pair has at least 2 paths");
  bench::print_check(maximum > 100, "extreme pairs exceed 100 path options");
  bench::print_check(cell(a::uva(), a::ufms()) > 50,
                     "UVa<->UFMS is among the richest pairs");
  bench::print_check(cell(a::kisti_dj(), a::kisti_sg()) >= 3,
                     "Daejeon->Singapore: ring gives multiple paths");
  return bench::exit_code();
}
