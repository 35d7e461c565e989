// Shared command-line flag parsing for the sciera_* tools. Each tool used
// to hand-roll its own argv loop with slightly different conventions
// (some exited mid-parse, some returned, value-taking flags duplicated
// their bounds checks); this helper gives them one typed registry with a
// uniform contract:
//
//   - "--name value" flags bind to std::string / unsigned / signed
//     integers (integers accept 0x-prefixed hex, full-token validated,
//     out-of-range and negative-unsigned values rejected);
//   - bare "--name" flags bind to bool (set true) or run a callback (for
//     tri-state modes like --text/--json/--both);
//   - anything unrecognized, a flag missing its value, or a malformed
//     number prints the tool's usage text to stderr and makes parse()
//     return false — callers exit 2, the uniform usage-error status.
//
// Header-only on purpose: tools link the libraries they drive, not a
// tools-support library.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace sciera::cli {

class FlagSet {
 public:
  // `usage` is the full multi-line usage text, printed verbatim (plus a
  // trailing newline) on any parse error and by usage().
  FlagSet(std::string program, std::string usage)
      : program_(std::move(program)), usage_(std::move(usage)) {}

  // Bare switch: presence sets *out to true.
  void flag(const char* name, bool* out) { specs_.emplace_back(name, out); }
  // Bare switch with a side effect (mode selectors, e.g. --json).
  void flag(const char* name, std::function<void()> on_set) {
    specs_.emplace_back(name, Callback{std::move(on_set)});
  }
  // Value-taking flags: "--name value".
  void flag(const char* name, std::string* out) {
    specs_.emplace_back(name, out);
  }
  void flag(const char* name, std::uint64_t* out) {
    specs_.emplace_back(name, out);
  }
  void flag(const char* name, std::int64_t* out) {
    specs_.emplace_back(name, out);
  }

  // Parses argv[first..argc); returns false (after printing usage) on any
  // unknown flag, missing value, or malformed number. Arguments that do
  // not start with '-' are collected as positionals.
  [[nodiscard]] bool parse(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (arg[0] != '-') {
        positionals_.emplace_back(arg);
        continue;
      }
      Spec* spec = find(arg);
      if (spec == nullptr) {
        return error("unknown flag '%s'", arg);
      }
      if (std::holds_alternative<bool*>(spec->target)) {
        *std::get<bool*>(spec->target) = true;
        continue;
      }
      if (std::holds_alternative<Callback>(spec->target)) {
        std::get<Callback>(spec->target).fn();
        continue;
      }
      if (i + 1 >= argc) {
        return error("%s needs a value", arg);
      }
      const char* value = argv[++i];
      if (auto** out = std::get_if<std::string*>(&spec->target)) {
        **out = value;
        continue;
      }
      if (!parse_number(*spec, value)) {
        return error("%s: '%s' is not a valid number", arg, value);
      }
    }
    return true;
  }

  // Prints the usage text to stderr and returns 2, so tools can write
  // `return flags.usage();` at their bail-out points.
  [[nodiscard]] int usage() const {
    std::fprintf(stderr, "%s\n", usage_.c_str());
    return 2;
  }

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

 private:
  struct Callback {
    std::function<void()> fn;
  };
  struct Spec {
    template <typename Target>
    Spec(const char* name, Target target) : name(name), target(target) {}
    std::string name;
    std::variant<bool*, Callback, std::string*, std::uint64_t*, std::int64_t*>
        target;
  };

  Spec* find(const char* arg) {
    for (Spec& spec : specs_) {
      if (spec.name == arg) return &spec;
    }
    return nullptr;
  }

  // Out-of-range values are malformed, not clamped: strto*ll saturate
  // and set ERANGE. Unsigned flags reject any '-', because strtoull
  // negates "-1" into 2^64-1 instead of failing.
  bool parse_number(Spec& spec, const char* value) {
    char* end = nullptr;
    errno = 0;
    if (auto** out = std::get_if<std::uint64_t*>(&spec.target)) {
      if (std::strchr(value, '-') != nullptr) return false;
      const std::uint64_t parsed = std::strtoull(value, &end, 0);
      if (end == value || *end != '\0' || errno == ERANGE) return false;
      **out = parsed;
      return true;
    }
    if (auto** out = std::get_if<std::int64_t*>(&spec.target)) {
      const std::int64_t parsed = std::strtoll(value, &end, 0);
      if (end == value || *end != '\0' || errno == ERANGE) return false;
      **out = parsed;
      return true;
    }
    return false;
  }

  template <typename... Args>
  bool error(const char* format, Args... args) {
    std::string line = program_ + ": ";
    line += format;
    line += "\n";
    std::fprintf(stderr, line.c_str(), args...);
    std::fprintf(stderr, "%s\n", usage_.c_str());
    return false;
  }

  std::string program_;
  std::string usage_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
};

}  // namespace sciera::cli
