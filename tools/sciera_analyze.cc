// sciera_analyze: the project's static analyzer. It runs on a real token
// stream (tools/cpp_lexer.h) with a per-file symbol table of container
// declarations, so it can reason about *what* is being iterated, not just
// what a line looks like. Its rules guard the determinism contract that
// makes seeded runs replay byte for byte, plus the project's conventions.
// Scopes are paths relative to the scan root.
//
// determinism hazards (src/)
//   unordered-iteration   (error) iterating a std::unordered_map/set —
//                         range-for, explicit .begin()/.cbegin(), or
//                         std::erase_if over a hash container. Iteration
//                         order depends on hashing/libstdc++ internals,
//                         so anything digest-visible must use an ordered
//                         container or a sorted view. Membership lookups
//                         (find/count/contains/operator[]) are fine and
//                         never flagged. A pure-predicate erase_if is
//                         set-like and may be suppressed with
//                         justification.
//   pointer-key-container (error) a map/set keyed by a pointer type:
//                         even std::map iterates in address order, which
//                         varies run to run.
//   float-accumulation    (warn) `+=`/`-=` on a float/double variable in
//                         digest-visible directories (src/simnet,
//                         src/dataplane, src/controlplane, src/chaos) —
//                         accumulation order changes the result once the
//                         parallel core reorders work. Integers (Duration)
//                         are associative; use them, or suppress with a
//                         justification that the value never reaches a
//                         digest.
//   unseeded-rng          (error) std::mt19937 & friends or
//                         std::random_device outside src/common/rng.* —
//                         all randomness flows from sciera::Rng so every
//                         run replays from an explicit seed.
//
// hot-path hygiene
//   percall-keyschedule   (error) constructing crypto::AesCmac or
//                         crypto::Aes128 inside src/dataplane/ or
//                         src/endhost/ — each construction reruns the
//                         AES key expansion and CMAC subkey derivation,
//                         which is exactly the per-packet cost the
//                         cached per-key contexts (dataplane::HopVerifier,
//                         hopfield's context cache, LightningFilter's
//                         per-source contexts) exist to avoid. A
//                         construction that is provably once-per-key
//                         (cache fill, rollover) is suppressible with
//                         justification.
//
// concurrency readiness
//   std-mutex-member      (error) naming std::mutex / std::lock_guard /
//                         std::scoped_lock / std::unique_lock (or
//                         including <mutex>) in src/ outside
//                         src/common/thread_annotations.h. Those types
//                         are invisible to Clang thread-safety analysis
//                         under libstdc++; use sciera::Mutex +
//                         sciera::MutexLock, which carry the capability
//                         annotations.
//
// layering
//   simnet-layering       (error) src/simnet may include only common/,
//                         obs/ and simnet/ project headers. The event
//                         core must not know about the layers above it.
//
// conventions (every scanned file unless noted; all errors)
//   banned-function       calls to rand/srand/random/rand_r/drand48,
//                         strcpy/stpcpy/strcat/sprintf/vsprintf/gets/
//                         alloca, and raw array `new T[n]` outside
//                         src/common/buffer.* (`operator new[]` is a
//                         declaration, not an allocation).
//   wall-clock-seed       time(), gettimeofday, clock_gettime, ftime,
//                         localtime, gmtime, the std::chrono clocks or
//                         random_device outside src/common/rng.cc: every
//                         run must replay from an explicit seed.
//   pragma-once           a header without `#pragma once`.
//   using-namespace       `using namespace` in a header, at any scope.
//   own-header-first      foo.cc's first #include is its own foo.h when
//                         one exists beside it, proving the header is
//                         self-contained.
//   adhoc-stats           a line with `struct` and `Stats` in src/
//                         outside src/obs/: components report through the
//                         metrics registry. A snapshot read back from the
//                         registry is marked `// registry-backed snapshot`
//                         on that line.
//   raw-retry-loop        a line with `for`/`while` and a retry/attempt
//                         identifier in src/ outside src/chaos/ and
//                         src/common/backoff.*: failures go through
//                         CircuitBreaker.
//   io                    a file that cannot be read.
//
// suppression hygiene
//   legacy-nolint         (warn) a bare `// NOLINT` (no rule list). It
//                         still suppresses everything on its line, but
//                         name the rule: `// NOLINT(rule-name)`.
//
// Suppressions use the grammar of tools/nolint.h: NOLINT(rule),
// NOLINT(rule-a, rule-b), NOLINTNEXTLINE(rule), with `sciera-` prefixes
// accepted. Symbols are resolved per file; a foo.cc also sees the
// container members declared in its companion foo.h.
//
// Usage: sciera_analyze [--json] [--werror] <repo_root> [subdir ...]
//        (default subdirs: src tests bench)
// Exit: 0 clean (warnings allowed unless --werror), 1 findings, 2 usage.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cpp_lexer.h"
#include "nolint.h"

namespace fs = std::filesystem;
using sciera::lintutil::LexedFile;
using sciera::lintutil::SuppressionIndex;
using sciera::lintutil::Token;

namespace {

enum class Severity { kError, kWarning };

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

// ---------------------------------------------------------------------------
// Symbol table: container-typed declarations visible in one file.

struct SymbolTable {
  std::set<std::string> unordered_vars;     // variables of hash-container type
  std::set<std::string> unordered_aliases;  // using-aliases to such types
  std::set<std::string> float_vars;         // variables declared float/double
};

bool is_unordered_container(std::string_view name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

bool is_assoc_container(std::string_view name) {
  return is_unordered_container(name) || name == "map" || name == "set" ||
         name == "multimap" || name == "multiset";
}

struct TokenCursor {
  const std::vector<Token>& toks;
  [[nodiscard]] bool ident(std::size_t i, std::string_view text) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
           toks[i].text == text;
  }
  [[nodiscard]] bool punct(std::size_t i, std::string_view text) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
           toks[i].text == text;
  }
  [[nodiscard]] bool any_ident(std::size_t i) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kIdent;
  }
  // A call is the identifier followed by `(`: names that merely contain
  // `text` never match.
  [[nodiscard]] bool call(std::size_t i, std::string_view text) const {
    return ident(i, text) && punct(i + 1, "(");
  }
};

// Walks the template argument list starting at the `<` token; returns the
// index one past the matching `>`, or npos. `first_arg` receives the
// tokens of the first top-level argument.
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t open, std::vector<Token>* first_arg) {
  int depth = 0;
  bool in_first = true;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "<") {
        ++depth;
        if (depth == 1) continue;  // don't record the opening bracket
      } else if (t.text == ">") {
        --depth;
        if (depth == 0) return i + 1;
        if (depth < 0) return std::string::npos;
      } else if (t.text == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      } else if (t.text == "," && depth == 1) {
        in_first = false;
        continue;
      } else if (t.text == ";") {
        return std::string::npos;  // statement ended: not a template
      }
    }
    if (depth >= 1 && in_first && first_arg != nullptr) {
      first_arg->push_back(t);
    }
  }
  return std::string::npos;
}

bool first_arg_is_pointer(const std::vector<Token>& first_arg) {
  return !first_arg.empty() && first_arg.back().kind == Token::Kind::kPunct &&
         first_arg.back().text == "*";
}

// After a complete type (index of the token following the closing `>`),
// find the declared variable name, skipping cv/ref/ptr decorations.
// Returns npos if this type mention is not a declaration (e.g. a function
// parameter type in a call expression, a return type of `&` expression).
std::size_t declared_name_index(const TokenCursor& cur, std::size_t i) {
  while (i < cur.toks.size() &&
         (cur.punct(i, "&") || cur.punct(i, "*") || cur.ident(i, "const"))) {
    ++i;
  }
  if (!cur.any_ident(i)) return std::string::npos;
  // The next token decides whether this is a declaration: initializers,
  // terminators and separators qualify; `(` means a function call or
  // declaration of a function — skip those.
  const std::size_t after = i + 1;
  if (after >= cur.toks.size()) return i;
  const Token& t = cur.toks[after];
  if (t.kind == Token::Kind::kPunct &&
      (t.text == ";" || t.text == "=" || t.text == "{" || t.text == "," ||
       t.text == ")" || t.text == "[")) {
    return i;
  }
  return std::string::npos;
}

// Builds the symbol table and reports pointer-keyed containers (they are
// findings at the declaration site, not at iteration sites).
void scan_declarations(const LexedFile& lexed, SymbolTable& table,
                       const std::string& rel, bool in_scope_src,
                       std::vector<Finding>& findings) {
  const TokenCursor cur{lexed.tokens};
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // using Alias = std::unordered_map<...>;
    if (cur.ident(i, "using") && cur.any_ident(i + 1) && cur.punct(i + 2, "=")) {
      const std::string alias = toks[i + 1].text;
      for (std::size_t j = i + 3;
           j < toks.size() && !cur.punct(j, ";"); ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            is_assoc_container(toks[j].text) && cur.punct(j + 1, "<")) {
          std::vector<Token> first_arg;
          skip_template_args(toks, j + 1, &first_arg);
          if (is_unordered_container(toks[j].text)) {
            table.unordered_aliases.insert(alias);
          }
          if (in_scope_src && first_arg_is_pointer(first_arg)) {
            findings.push_back(
                {rel, toks[j].line, "pointer-key-container", Severity::kError,
                 "associative container keyed by a pointer — iteration order "
                 "is address order, which varies run to run; key by a stable "
                 "identifier instead"});
          }
          break;
        }
      }
      continue;
    }
    // std::unordered_map<...> name  /  std::map<...> name
    if (toks[i].kind == Token::Kind::kIdent &&
        is_assoc_container(toks[i].text) && cur.punct(i + 1, "<") && i >= 2 &&
        cur.ident(i - 2, "std") && cur.punct(i - 1, "::")) {
      std::vector<Token> first_arg;
      const std::size_t after = skip_template_args(toks, i + 1, &first_arg);
      if (after == std::string::npos) continue;
      if (in_scope_src && first_arg_is_pointer(first_arg)) {
        findings.push_back(
            {rel, toks[i].line, "pointer-key-container", Severity::kError,
             "associative container keyed by a pointer — iteration order is "
             "address order, which varies run to run; key by a stable "
             "identifier instead"});
      }
      if (is_unordered_container(toks[i].text)) {
        const std::size_t name = declared_name_index(cur, after);
        if (name != std::string::npos) {
          table.unordered_vars.insert(toks[name].text);
        }
      }
      continue;
    }
    // AliasOfUnordered name;  (declaration through a tracked alias)
    if (toks[i].kind == Token::Kind::kIdent &&
        table.unordered_aliases.count(toks[i].text) != 0) {
      const std::size_t name = declared_name_index(cur, i + 1);
      if (name != std::string::npos) {
        table.unordered_vars.insert(toks[name].text);
      }
      continue;
    }
    // double name / float name
    if ((cur.ident(i, "double") || cur.ident(i, "float"))) {
      const std::size_t name = declared_name_index(cur, i + 1);
      if (name != std::string::npos) {
        table.float_vars.insert(toks[name].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rules over the token stream.

struct RuleContext {
  const LexedFile& lexed;
  const SymbolTable& table;
  std::string rel;           // path relative to the scan root
  std::vector<Finding>* out;

  void add(std::size_t line, std::string rule, Severity sev,
           std::string message) const {
    out->push_back({rel, line, std::move(rule), sev, std::move(message)});
  }
};

// unordered-iteration: range-for over a hash container, explicit
// begin()/cbegin()/rbegin(), or std::erase_if on one.
void rule_unordered_iteration(const RuleContext& ctx) {
  const TokenCursor cur{ctx.lexed.tokens};
  const auto& toks = ctx.lexed.tokens;
  const auto known = [&](const Token& t) {
    return t.kind == Token::Kind::kIdent &&
           ctx.table.unordered_vars.count(t.text) != 0;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for: for ( decl : range-expr )
    if (cur.ident(i, "for") && cur.punct(i + 1, "(")) {
      int depth = 0;
      std::size_t colon = std::string::npos;
      std::size_t close = std::string::npos;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind != Token::Kind::kPunct) continue;
        if (toks[j].text == "(") {
          ++depth;
        } else if (toks[j].text == ")") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && toks[j].text == ";") {
          break;  // classic three-clause for
        } else if (depth == 1 && toks[j].text == ":" &&
                   colon == std::string::npos) {
          colon = j;
        }
      }
      if (colon != std::string::npos && close != std::string::npos &&
          close > colon + 1) {
        // The range expression's *last* token decides: `m` or `obj.m_`
        // iterates the container itself; `m[key]` (ends in `]`) or
        // `sorted(m)` (ends in `)`) does not.
        const Token& last = toks[close - 1];
        if (known(last)) {
          ctx.add(last.line, "unordered-iteration", Severity::kError,
                  "range-for over hash container '" + last.text +
                      "' — iteration order is not deterministic; use an "
                      "ordered container or a sorted view");
        }
      }
    }
    // x.begin() / x.cbegin() / x.rbegin()
    if (known(toks[i]) && (cur.punct(i + 1, ".") || cur.punct(i + 1, "->")) &&
        i + 2 < toks.size() && toks[i + 2].kind == Token::Kind::kIdent &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin") &&
        cur.punct(i + 3, "(")) {
      ctx.add(toks[i].line, "unordered-iteration", Severity::kError,
              "iterator walk over hash container '" + toks[i].text +
                  "' — iteration order is not deterministic; use an ordered "
                  "container or a sorted view");
    }
    // std::erase_if(x, ...) — iterates internally; order-independent only
    // when the predicate is pure, hence suppressible with justification.
    if (cur.ident(i, "erase_if") && cur.punct(i + 1, "(") &&
        i + 2 < toks.size() && known(toks[i + 2]) &&
        (cur.punct(i + 3, ",") || cur.punct(i + 3, ")"))) {
      ctx.add(toks[i].line, "unordered-iteration", Severity::kError,
              "std::erase_if over hash container '" + toks[i + 2].text +
                  "' — set-like and safe only if the predicate is pure; "
                  "suppress with '// NOLINT(unordered-iteration)' plus a "
                  "justification, or use an ordered container");
    }
  }
}

void rule_float_accumulation(const RuleContext& ctx) {
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        ctx.table.float_vars.count(toks[i].text) != 0 &&
        (cur.punct(i + 1, "+=") || cur.punct(i + 1, "-="))) {
      ctx.add(toks[i].line, "float-accumulation", Severity::kWarning,
              "accumulation into floating-point '" + toks[i].text +
                  "' in a digest-visible path — the result depends on "
                  "summation order; accumulate in integers (Duration) or "
                  "suppress with a justification that the value never "
                  "reaches a digest");
    }
  }
}

void rule_unseeded_rng(const RuleContext& ctx) {
  static constexpr std::string_view kEngines[] = {
      "mt19937",    "mt19937_64",        "minstd_rand", "minstd_rand0",
      "ranlux24",   "ranlux48",          "knuth_b",     "default_random_engine",
      "random_device",
  };
  for (const Token& t : ctx.lexed.tokens) {
    if (t.kind != Token::Kind::kIdent) continue;
    for (const std::string_view engine : kEngines) {
      if (t.text == engine) {
        ctx.add(t.line, "unseeded-rng", Severity::kError,
                "std::" + t.text +
                    " outside src/common/rng.* — all randomness must flow "
                    "from sciera::Rng so runs replay from an explicit seed");
      }
    }
  }
}

void rule_std_mutex_member(const RuleContext& ctx) {
  static constexpr std::string_view kTypes[] = {
      "mutex",        "recursive_mutex", "timed_mutex", "shared_mutex",
      "lock_guard",   "scoped_lock",     "unique_lock", "shared_lock",
      "condition_variable",
  };
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!cur.ident(i, "std") || !cur.punct(i + 1, "::")) continue;
    for (const std::string_view type : kTypes) {
      if (toks[i + 2].kind == Token::Kind::kIdent && toks[i + 2].text == type) {
        ctx.add(toks[i].line, "std-mutex-member", Severity::kError,
                "std::" + toks[i + 2].text +
                    " is invisible to thread-safety analysis — use "
                    "sciera::Mutex / sciera::MutexLock "
                    "(src/common/thread_annotations.h)");
      }
    }
  }
  for (const auto& inc : ctx.lexed.includes) {
    if (!inc.quoted && inc.path == "mutex") {
      ctx.add(inc.line, "std-mutex-member", Severity::kError,
              "#include <mutex> outside src/common/thread_annotations.h — "
              "include \"common/thread_annotations.h\" and use sciera::Mutex");
    }
  }
}

void rule_simnet_layering(const RuleContext& ctx) {
  static constexpr std::string_view kAllowed[] = {"common/", "obs/", "simnet/"};
  for (const auto& inc : ctx.lexed.includes) {
    if (!inc.quoted) continue;  // system/vendor headers are fine
    bool ok = false;
    for (const std::string_view prefix : kAllowed) {
      if (std::string_view{inc.path}.starts_with(prefix)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      ctx.add(inc.line, "simnet-layering", Severity::kError,
              "src/simnet may not include '" + inc.path +
                  "' — the event core depends only on common/, obs/ and "
                  "simnet/; upper layers hook in via callbacks");
    }
  }
}

// percall-keyschedule: constructing crypto::AesCmac or crypto::Aes128 in
// dataplane code reruns the AES key schedule. Per-packet paths must go
// through a cached per-key context; once-per-key constructions (cache
// fill, key rollover) suppress with justification.
void rule_percall_keyschedule(const RuleContext& ctx) {
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        (toks[i].text != "AesCmac" && toks[i].text != "Aes128")) {
      continue;
    }
    // Nested-name uses (AesCmac::Mac, Aes128::Key) are not constructions.
    if (cur.punct(i + 1, "::")) continue;
    bool constructs = false;
    if (cur.punct(i + 1, "(") || cur.punct(i + 1, "{")) {
      // Temporary / direct-initialization: AesCmac{key}, AesCmac(key).
      constructs = true;
    } else if (i + 2 < toks.size() &&
               toks[i + 1].kind == Token::Kind::kIdent &&
               (cur.punct(i + 2, "(") || cur.punct(i + 2, "{") ||
                cur.punct(i + 2, "="))) {
      // Named declaration with an initializer: AesCmac cmac{key};
      // A bare member declaration (`AesCmac cmac_;`) never runs the
      // schedule by itself and is not flagged.
      constructs = true;
    } else if (cur.punct(i + 1, ">") && cur.punct(i + 2, "(")) {
      // make_unique<crypto::AesCmac>(key) and friends.
      constructs = true;
    }
    if (!constructs) continue;
    ctx.add(toks[i].line, "percall-keyschedule", Severity::kError,
            "constructing crypto::" + toks[i].text +
                " in packet-path code reruns the AES key schedule — "
                "per-packet paths must reuse a cached per-key context "
                "(dataplane::HopVerifier / compute_hop_mac's context "
                "cache / LightningFilter's per-source contexts); if this "
                "site is provably once-per-key, suppress with "
                "'// NOLINT(percall-keyschedule)' plus a justification");
  }
}

// Convention rules: tree-wide unless analyze_file scopes them.
void rule_banned_function(const RuleContext& ctx, bool array_new_banned) {
  static constexpr std::string_view kBanned[] = {
      "rand",   "srand",  "random",  "rand_r",   "drand48", "strcpy",
      "stpcpy", "strcat", "sprintf", "vsprintf", "gets",    "alloca",
  };
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    for (const std::string_view name : kBanned) {
      if (cur.call(i, name)) {
        ctx.add(toks[i].line, "banned-function", Severity::kError,
                "call to banned function '" + toks[i].text + "'");
      }
    }
    // `new T[n]`: a `[` on the new-expression's line before it ends or
    // opens a placement/initializer list.
    if (!array_new_banned || !cur.ident(i, "new") ||
        (i > 0 && cur.ident(i - 1, "operator"))) {
      continue;
    }
    for (std::size_t j = i + 1; j < toks.size() && toks[j].line == toks[i].line;
         ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      const std::string_view p = toks[j].text;
      if (p == "[") {
        ctx.add(toks[i].line, "banned-function", Severity::kError,
                "raw array new[] outside src/common/buffer.*");
      }
      if (p == "[" || p == ";" || p == "," || p == ")" || p == "(" || p == "{") {
        break;
      }
    }
  }
}

void rule_wall_clock_seed(const RuleContext& ctx) {
  static constexpr std::string_view kCalls[] = {
      "time", "gettimeofday", "clock_gettime", "ftime", "localtime", "gmtime",
  };
  static constexpr std::string_view kWords[] = {
      "system_clock", "steady_clock", "high_resolution_clock", "random_device",
  };
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    for (const std::string_view name : kCalls) {
      if (cur.call(i, name)) {
        ctx.add(toks[i].line, "wall-clock-seed", Severity::kError,
                "wall-clock source '" + toks[i].text +
                    "' outside src/common/rng.cc");
      }
    }
    for (const std::string_view name : kWords) {
      if (cur.ident(i, name)) {
        ctx.add(toks[i].line, "wall-clock-seed", Severity::kError,
                "nondeterministic clock/entropy '" + toks[i].text +
                    "' outside src/common/rng.cc");
      }
    }
  }
}

void rule_header_hygiene(const RuleContext& ctx) {
  const auto& toks = ctx.lexed.tokens;
  const TokenCursor cur{toks};
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    has_pragma_once = has_pragma_once || (cur.punct(i, "#") &&
                                          cur.ident(i + 1, "pragma") &&
                                          cur.ident(i + 2, "once"));
    if (cur.ident(i, "using") && cur.ident(i + 1, "namespace")) {
      ctx.add(toks[i].line, "using-namespace", Severity::kError,
              "'using namespace' in a header leaks into every includer");
    }
  }
  if (!has_pragma_once) {
    ctx.add(1, "pragma-once", Severity::kError,
            "header is missing '#pragma once'");
  }
}

void rule_own_header_first(const RuleContext& ctx, const std::string& stem) {
  const std::string own = stem + ".h";
  const auto& includes = ctx.lexed.includes;
  const std::string found = includes.empty() ? "" : includes.front().path;
  if (found == own || found.ends_with("/" + own)) return;
  ctx.add(includes.empty() ? 1 : includes.front().line, "own-header-first",
          Severity::kError,
          "first #include must be the file's own header '" + own +
              "' (found '" + found + "')");
}

// raw-retry-loop and adhoc-stats look at one line at a time: a loop
// header naming retry/attempt state, a `struct ... Stats` declaration.
void rule_line_conventions(const RuleContext& ctx, bool retry_scope,
                           bool stats_scope) {
  enum : unsigned { kLoop = 1, kRetry = 2, kStruct = 4, kStats = 8 };
  std::map<std::size_t, unsigned> lines;
  for (const Token& t : ctx.lexed.tokens) {
    if (t.kind != Token::Kind::kIdent) continue;
    std::string lower = t.text;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    unsigned& seen = lines[t.line];
    if (t.text == "for" || t.text == "while") seen |= kLoop;
    if (lower.find("retry") != std::string::npos ||
        lower.find("retries") != std::string::npos ||
        lower.find("attempt") != std::string::npos) {
      seen |= kRetry;
    }
    if (t.text == "struct") seen |= kStruct;
    if (t.text == "Stats") seen |= kStats;
  }
  for (const auto& [line, seen] : lines) {
    if (retry_scope && (seen & (kLoop | kRetry)) == (kLoop | kRetry)) {
      ctx.add(line, "raw-retry-loop", Severity::kError,
              "ad-hoc retry loop — use sciera::CircuitBreaker "
              "(src/common/backoff.h); suppress deliberate cases with "
              "'// NOLINT(raw-retry-loop)'");
    }
    const auto comment = ctx.lexed.comments.find(line);
    if (stats_scope && (seen & (kStruct | kStats)) == (kStruct | kStats) &&
        (comment == ctx.lexed.comments.end() ||
         comment->second.find("registry-backed snapshot") ==
             std::string::npos)) {
      ctx.add(line, "adhoc-stats", Severity::kError,
              "ad-hoc 'struct Stats' outside src/obs/ — report through "
              "obs::MetricsRegistry (mark registry-backed snapshot structs "
              "with '// registry-backed snapshot')");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.

bool is_header(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".hh";
}

bool is_source(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx";
}

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

struct FileAnalysis {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;
};

// Analyzes one file; `rel` is forward-slash relative to the scan root.
FileAnalysis analyze_file(const fs::path& file, const std::string& rel) {
  FileAnalysis result;
  const std::optional<std::string> content = read_file(file);
  if (!content) {
    result.findings.push_back(
        {rel, 0, "io", Severity::kError, "cannot open file"});
    return result;
  }
  const LexedFile lexed = sciera::lintutil::lex(*content);

  SymbolTable table;
  std::vector<Finding> raw;

  const std::string_view path{rel};
  const bool in_src = path.starts_with("src/");
  scan_declarations(lexed, table, rel, in_src, raw);

  // Companion header: foo.cc sees the members declared in foo.h (same
  // directory). Its declarations feed the symbol table only — findings in
  // the header are reported when the header itself is scanned.
  fs::path companion = file;
  companion.replace_extension(".h");
  const bool has_companion = is_source(file) && fs::exists(companion);
  if (has_companion) {
    const LexedFile header =
        sciera::lintutil::lex(read_file(companion).value_or(""));
    std::vector<Finding> ignored;
    scan_declarations(header, table, rel, false, ignored);
  }

  const RuleContext ctx{lexed, table, rel, &raw};
  rule_banned_function(ctx, path != "src/common/buffer.cc" &&
                                path != "src/common/buffer.h");
  if (path != "src/common/rng.cc") rule_wall_clock_seed(ctx);
  if (is_header(file)) rule_header_hygiene(ctx);
  if (has_companion) rule_own_header_first(ctx, file.stem().string());
  const bool owns_retry_policy = path.starts_with("src/chaos/") ||
                                 path == "src/common/backoff.h" ||
                                 path == "src/common/backoff.cc";
  rule_line_conventions(ctx, in_src && !owns_retry_policy,
                        in_src && !path.starts_with("src/obs/"));
  if (in_src) {
    rule_unordered_iteration(ctx);
    const bool digest_visible = path.starts_with("src/simnet/") ||
                                path.starts_with("src/dataplane/") ||
                                path.starts_with("src/controlplane/") ||
                                path.starts_with("src/chaos/");
    if (digest_visible) rule_float_accumulation(ctx);
    if (rel != "src/common/rng.cc" && rel != "src/common/rng.h") {
      rule_unseeded_rng(ctx);
    }
    if (rel != "src/common/thread_annotations.h") rule_std_mutex_member(ctx);
    if (path.starts_with("src/simnet/")) rule_simnet_layering(ctx);
    if (path.starts_with("src/dataplane/") || path.starts_with("src/endhost/")) {
      rule_percall_keyschedule(ctx);
    }
  }

  // Suppression pass: NOLINT markers live in comments. legacy-nolint is a
  // meta rule about the bare marker itself, which therefore does not
  // suppress it; a named marker does.
  SuppressionIndex index;
  for (const auto& [line, text] : lexed.comments) {
    index.add_line(line, text);
  }
  for (const std::size_t line : index.legacy_lines()) {
    ctx.add(line, "legacy-nolint", Severity::kWarning,
            "bare NOLINT suppresses every rule — name the rule: "
            "'// NOLINT(rule-name)'");
  }
  for (const Finding& f : raw) {
    if (index.suppressed(f.line, f.rule)) {
      ++result.suppressed;
    } else {
      result.findings.push_back(f);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg.starts_with("--")) {
      std::cerr << "sciera_analyze: unknown flag " << arg << "\n";
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.empty()) {
    std::cerr << "usage: sciera_analyze [--json] [--werror] <repo_root> "
                 "[subdir ...]\n";
    return 2;
  }
  const fs::path root = positional.front();
  std::vector<std::string> subdirs(positional.begin() + 1, positional.end());
  if (subdirs.empty()) subdirs = {"src", "tests", "bench"};

  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  for (const auto& subdir : subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::exists(dir)) {
      std::cerr << "sciera_analyze: no such directory: " << dir << "\n";
      return 2;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      if (is_header(entry.path()) || is_source(entry.path())) {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& p : files) {
      FileAnalysis fa =
          analyze_file(p, fs::relative(p, root).generic_string());
      suppressed += fa.suppressed;
      findings.insert(findings.end(), fa.findings.begin(), fa.findings.end());
      ++files_scanned;
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Finding& f : findings) {
    (f.severity == Severity::kError ? errors : warnings) += 1;
  }

  if (json) {
    std::cout << "{\n  \"schema\": \"sciera.analyze.v1\",\n";
    std::cout << "  \"files_scanned\": " << files_scanned << ",\n";
    std::cout << "  \"suppressed\": " << suppressed << ",\n";
    std::cout << "  \"errors\": " << errors << ",\n";
    std::cout << "  \"warnings\": " << warnings << ",\n";
    std::cout << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::cout << (i == 0 ? "\n" : ",\n");
      std::cout << "    {\"file\": \"" << json_escape(f.file)
                << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
                << "\", \"severity\": \""
                << (f.severity == Severity::kError ? "error" : "warning")
                << "\", \"message\": \"" << json_escape(f.message) << "\"}";
    }
    std::cout << (findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
  } else {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": "
                << (f.severity == Severity::kError ? "error" : "warning")
                << " [" << f.rule << "] " << f.message << "\n";
    }
    std::cout << "sciera_analyze: " << files_scanned << " files, " << errors
              << " error" << (errors == 1 ? "" : "s") << ", " << warnings
              << " warning" << (warnings == 1 ? "" : "s") << " (" << suppressed
              << " suppressed)\n";
  }
  if (errors > 0) return 1;
  if (werror && warnings > 0) return 1;
  return 0;
}
