// sciera_lint: in-repo static checker enforcing the project's correctness
// conventions over src/, tests/, and bench/. Registered as a ctest so a
// violation fails tier-1. Rules:
//
//   banned-function    rand/srand/random, strcpy/strcat/sprintf/vsprintf/
//                      gets, and raw array new[] (outside the owning
//                      buffer abstraction in src/common/buffer.*)
//   wall-clock-seed    no wall-clock or entropy sources (time(...),
//                      std::chrono clocks, random_device, gettimeofday,
//                      clock_gettime) outside src/common/rng.cc — every
//                      run must replay from an explicit seed
//   pragma-once        every header starts include-guarding via
//                      `#pragma once`
//   using-namespace    no `using namespace` in headers (any scope — it
//                      leaks into every includer)
//   own-header-first   foo.cc's first #include is its own header foo.h
//                      (IWYU-style: proves each header is self-contained)
//   adhoc-stats        no ad-hoc `struct Stats` under src/ outside
//                      src/obs/: components report through the metrics
//                      registry. A snapshot struct whose values are read
//                      back from the registry, or mirrored into it by a
//                      publish method, is allowed when marked
//                      `// registry-backed snapshot` on the declaring line
//   raw-retry-loop     no ad-hoc retry loops under src/ outside the
//                      shared policy (src/common/backoff.*) and the chaos
//                      engine (src/chaos/): a loop header naming
//                      retry/attempt state must go through BackoffPolicy +
//                      CircuitBreaker so timeout/backoff/jitter behaviour
//                      is uniform and deterministic. Suppress deliberate
//                      cases with `// NOLINT(sciera-raw-retry-loop)`
//   direct-control-lookup
//                      no `control_service(...)` calls under src/endhost/:
//                      end-host lookups go through the replicated
//                      ControlServiceSet (replica failover + per-replica
//                      breakers). Suppress with
//                      `// NOLINT(sciera-direct-control-lookup)`
//
// Comments and string/char literals are stripped before matching, so
// documentation may mention banned names freely.
//
// Every rule is suppressible through the unified grammar of
// tools/nolint.h (shared with sciera_analyze): `// NOLINT(rule-name)` on
// the offending line or `// NOLINTNEXTLINE(rule-name)` above it, with
// rule names accepted with or without the historical `sciera-` prefix.
// A bare `// NOLINT` still suppresses everything on its line but is
// reported as a (non-fatal) legacy-nolint warning — name the rule.
//
// Usage: sciera_lint <repo_root> [subdir ...]   (default: src tests bench)
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "nolint.h"

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct LineOfCode {
  std::size_t number = 0;
  std::string text;  // comments and literals stripped
  std::string raw;   // the line as written (for #include paths)
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Strips // and /* */ comments plus string and character literals,
// preserving line structure so violation line numbers stay accurate.
std::vector<LineOfCode> strip_source(const std::string& content) {
  std::vector<LineOfCode> lines;
  std::string current;
  std::string raw;
  std::size_t line_number = 1;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c != '\n') raw.push_back(c);
    if (c == '\n') {
      lines.push_back({line_number++, current, raw});
      current.clear();
      raw.clear();
      // Literals cannot span a raw newline; a dangling state here is a
      // digit separator (1'000) or malformed input — recover per line.
      if (state != State::kBlockComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          current.push_back('"');
        } else if (c == '\'') {
          // An apostrophe right after an identifier character is a C++14
          // digit separator (1'000), not a character literal.
          if (!current.empty() && is_ident_char(current.back())) {
            current.push_back('\'');
          } else {
            state = State::kChar;
            current.push_back('\'');
          }
        } else {
          current.push_back(c);
        }
        break;
      case State::kLineComment:
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          current.push_back('"');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current.push_back('\'');
        }
        break;
    }
  }
  if (!current.empty() || !raw.empty()) {
    lines.push_back({line_number, current, raw});
  }
  return lines;
}

// True when `line` contains `word` as a whole identifier token.
bool contains_word(std::string_view line, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Like contains_word, but the token must be followed by '(' (after
// optional whitespace) — distinguishes a call to time() from the many
// identifiers that merely contain the word.
bool contains_call(std::string_view line, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t end = pos + word.size();
    while (end < line.size() &&
           std::isspace(static_cast<unsigned char>(line[end])) != 0) {
      ++end;
    }
    if (left_ok && end < line.size() && line[end] == '(') return true;
    pos = pos + word.size();
  }
  return false;
}

struct FileReport {
  std::vector<Violation> violations;
  std::vector<Violation> warnings;  // non-fatal (legacy-nolint)
  void add(const fs::path& file, std::size_t line, std::string rule,
           std::string message) {
    violations.push_back(
        {file.generic_string(), line, std::move(rule), std::move(message)});
  }
};

constexpr std::string_view kBannedCalls[] = {
    "rand",   "srand",    "random", "rand_r", "drand48",
    "strcpy", "stpcpy",   "strcat", "sprintf", "vsprintf",
    "gets",   "alloca",
};

constexpr std::string_view kWallClockCalls[] = {
    "gettimeofday", "clock_gettime", "ftime", "localtime", "gmtime",
};
constexpr std::string_view kWallClockWords[] = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device",
};

bool is_header(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".hh";
}

bool is_source(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx";
}

// rel: path relative to the repo root, used for allowlists.
void lint_file(const fs::path& file, const fs::path& rel, FileReport& report) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    report.add(rel, 0, "io", "cannot open file");
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  const auto lines = strip_source(content);
  const std::string rel_str = rel.generic_string();

  // Unified suppression grammar (tools/nolint.h): markers are parsed from
  // the raw lines, violations filtered at the end of the scan.
  sciera::lintutil::SuppressionIndex nolint;
  for (const auto& line : lines) nolint.add_line(line.number, line.raw);
  FileReport local;

  const bool is_rng = rel_str == "src/common/rng.cc";
  const bool is_buffer_code = rel_str == "src/common/buffer.cc" ||
                              rel_str == "src/common/buffer.h";
  const bool owns_retry_policy = rel_str.starts_with("src/chaos/") ||
                                 rel_str == "src/common/backoff.h" ||
                                 rel_str == "src/common/backoff.cc";

  for (const auto& line : lines) {
    for (const auto banned : kBannedCalls) {
      if (contains_call(line.text, banned)) {
        local.add(rel, line.number, "banned-function",
                   "call to banned function '" + std::string{banned} + "'");
      }
    }
    if (!is_buffer_code) {
      // Raw array new: `new T[n]` (the owning-buffer abstraction in
      // src/common/buffer.* is the one allowed user).
      const std::size_t pos = line.text.find("new ");
      if (pos != std::string::npos &&
          (pos == 0 || !is_ident_char(line.text[pos - 1]))) {
        const std::size_t bracket = line.text.find('[', pos + 4);
        const std::size_t stop = line.text.find_first_of(";,)({", pos + 4);
        if (bracket != std::string::npos &&
            (stop == std::string::npos || bracket < stop)) {
          local.add(rel, line.number, "banned-function",
                     "raw array new[] outside src/common/buffer.*");
        }
      }
    }
    if (!is_rng) {
      for (const auto banned : kWallClockCalls) {
        if (contains_call(line.text, banned)) {
          local.add(rel, line.number, "wall-clock-seed",
                     "wall-clock source '" + std::string{banned} +
                         "' outside src/common/rng.cc");
        }
      }
      if (contains_call(line.text, "time")) {
        local.add(rel, line.number, "wall-clock-seed",
                   "call to time() outside src/common/rng.cc");
      }
      for (const auto banned : kWallClockWords) {
        if (contains_word(line.text, banned)) {
          local.add(rel, line.number, "wall-clock-seed",
                     "nondeterministic clock/entropy '" + std::string{banned} +
                         "' outside src/common/rng.cc");
        }
      }
    }
    if (is_header(rel) && contains_word(line.text, "using") &&
        line.text.find("using namespace") != std::string::npos) {
      local.add(rel, line.number, "using-namespace",
                 "'using namespace' in a header leaks into every includer");
    }
    // End-host code must not fetch paths from a ControlService directly:
    // lookups go through the replicated ControlServiceSet so failover and
    // the per-replica breakers apply. `control_service_set(...)` does not
    // match — contains_call requires '(' right after the token.
    if (rel_str.starts_with("src/endhost/") &&
        contains_call(line.text, "control_service")) {
      local.add(rel, line.number, "direct-control-lookup",
                 "direct ControlService lookup from endhost code — use "
                 "ScionNetwork::control_service_set() so replica failover "
                 "applies (suppress with "
                 "'// NOLINT(sciera-direct-control-lookup)')");
    }
    // Ad-hoc retry loops scatter resilience policy: a loop header driving
    // retry/attempt state must go through sciera::BackoffPolicy (with its
    // deterministic jitter) and CircuitBreaker instead of hand-rolling
    // timing. Only the shared policy and the chaos engine may loop on
    // retry state directly.
    if (rel_str.starts_with("src/") && !owns_retry_policy &&
        (contains_word(line.text, "for") ||
         contains_word(line.text, "while"))) {
      std::string lowered = line.text;
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lowered.find("retry") != std::string::npos ||
          lowered.find("retries") != std::string::npos ||
          lowered.find("attempt") != std::string::npos) {
        local.add(rel, line.number, "raw-retry-loop",
                   "ad-hoc retry loop — use sciera::BackoffPolicy / "
                   "CircuitBreaker (src/common/backoff.h); suppress "
                   "deliberate cases with '// NOLINT(sciera-raw-retry-loop)'");
      }
    }
    // Ad-hoc per-component stats structs fragment observability: metrics
    // belong in the obs registry. The marker comment (checked on the raw
    // line — comments are stripped from .text) exempts legacy-shaped
    // snapshot structs that are thin reads over registry cells.
    if (rel_str.starts_with("src/") && !rel_str.starts_with("src/obs/") &&
        contains_word(line.text, "struct") &&
        contains_word(line.text, "Stats") &&
        line.raw.find("registry-backed snapshot") == std::string::npos) {
      local.add(rel, line.number, "adhoc-stats",
                 "ad-hoc 'struct Stats' outside src/obs/ — report through "
                 "obs::MetricsRegistry (mark registry-backed snapshot "
                 "structs with '// registry-backed snapshot')");
    }
  }

  if (is_header(rel)) {
    const bool has_pragma =
        std::any_of(lines.begin(), lines.end(), [](const LineOfCode& l) {
          return l.text.find("#pragma once") != std::string::npos;
        });
    if (!has_pragma) {
      local.add(rel, 1, "pragma-once", "header is missing '#pragma once'");
    }
  }

  if (is_source(rel)) {
    fs::path own_header = file;
    own_header.replace_extension(".h");
    if (fs::exists(own_header)) {
      // Project-style include: "dir/stem.h" relative to the source root,
      // or just "stem.h" for top-level files.
      const std::string stem = file.stem().string();
      std::string first_include;
      std::size_t first_line = 0;
      for (const auto& line : lines) {
        // Only lines that are #include directives in actual code (the
        // stripped text keeps the directive, the raw text keeps the path).
        const std::size_t inc = line.text.find("#include");
        if (inc == std::string::npos) continue;
        const std::size_t open = line.raw.find_first_of("\"<");
        if (open == std::string::npos) break;
        const char close_ch = line.raw[open] == '"' ? '"' : '>';
        const std::size_t close = line.raw.find(close_ch, open + 1);
        if (close == std::string::npos) break;
        first_include = line.raw.substr(open + 1, close - open - 1);
        first_line = line.number;
        break;
      }
      const std::string expected_suffix = stem + ".h";
      const bool matches =
          first_include == expected_suffix ||
          (first_include.size() > expected_suffix.size() &&
           first_include.ends_with("/" + expected_suffix));
      if (!matches) {
        local.add(rel, first_line == 0 ? 1 : first_line, "own-header-first",
                   "first #include must be the file's own header '" +
                       expected_suffix + "' (found '" + first_include + "')");
      }
    }
  }

  // Apply suppressions and surface legacy bare-NOLINT markers.
  for (auto& v : local.violations) {
    if (!nolint.suppressed(v.line, v.rule)) {
      report.violations.push_back(std::move(v));
    }
  }
  for (const std::size_t legacy_line : nolint.legacy_lines()) {
    report.warnings.push_back(
        {rel.generic_string(), legacy_line, "legacy-nolint",
         "bare NOLINT suppresses every rule — name the rule: "
         "'// NOLINT(rule-name)'"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: sciera_lint <repo_root> [subdir ...]\n";
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<std::string> subdirs;
  for (int i = 2; i < argc; ++i) subdirs.emplace_back(argv[i]);
  if (subdirs.empty()) subdirs = {"src", "tests", "bench"};

  FileReport report;
  std::size_t files_scanned = 0;
  for (const auto& subdir : subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::exists(dir)) {
      std::cerr << "sciera_lint: no such directory: " << dir << "\n";
      return 2;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto& p = entry.path();
      if (is_header(p) || is_source(p)) files.push_back(p);
    }
    std::sort(files.begin(), files.end());
    for (const auto& p : files) {
      lint_file(p, fs::relative(p, root), report);
      ++files_scanned;
    }
  }

  for (const auto& w : report.warnings) {
    std::cout << w.file << ":" << w.line << ": warning [" << w.rule << "] "
              << w.message << "\n";
  }
  for (const auto& v : report.violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cout << "sciera_lint: " << files_scanned << " files, "
            << report.violations.size() << " violation"
            << (report.violations.size() == 1 ? "" : "s") << " ("
            << report.warnings.size() << " warning"
            << (report.warnings.size() == 1 ? "" : "s") << ")\n";
  return report.violations.empty() ? 0 : 1;
}
