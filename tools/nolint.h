// NOLINT suppression grammar of sciera_analyze. One syntax covers every
// rule:
//
//   // NOLINT(rule-name)             suppress `rule-name` on this line
//   // NOLINT(rule-a, rule-b)        suppress several rules
//   // NOLINT(sciera-rule-name)      legacy spelling, same meaning
//   // NOLINTNEXTLINE(rule-name)     suppress on the following line
//   // NOLINT                        legacy bare form: suppresses every
//                                    rule on the line, but is itself
//                                    reported as a `legacy-nolint` warning
//                                    — name the rule you are silencing.
//                                    Only a named marker suppresses that
//                                    warning.
//
// Rule names match with or without the `sciera-` prefix, so
// `NOLINT(sciera-raw-retry-loop)` markers work against the rule
// registered as `raw-retry-loop` (and vice versa).
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sciera::lintutil {

struct NolintSpec {
  bool present = false;   // any NOLINT marker on the line
  bool bare = false;      // legacy bare NOLINT (no rule list)
  bool nextline = false;  // marker was NOLINTNEXTLINE
  std::vector<std::string> rules;
};

inline bool nolint_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-' || c == '*';
}

// Parses every NOLINT / NOLINTNEXTLINE marker in `text` (typically one
// raw source line). Multiple markers merge: rules accumulate, and the
// bare flag is set if any marker lacks a rule list.
inline std::vector<NolintSpec> parse_nolint(std::string_view text) {
  std::vector<NolintSpec> specs;
  std::size_t pos = 0;
  while ((pos = text.find("NOLINT", pos)) != std::string_view::npos) {
    // Reject identifiers that merely contain NOLINT (e.g. kNolintFoo).
    if (pos > 0 && (std::isalnum(static_cast<unsigned char>(text[pos - 1])) ||
                    text[pos - 1] == '_')) {
      pos += 6;
      continue;
    }
    NolintSpec spec;
    spec.present = true;
    std::size_t end = pos + 6;
    if (text.substr(end).starts_with("NEXTLINE")) {
      spec.nextline = true;
      end += 8;
    }
    if (end < text.size() && text[end] == '(') {
      const std::size_t close = text.find(')', end);
      if (close != std::string_view::npos) {
        std::string rule;
        for (std::size_t i = end + 1; i <= close; ++i) {
          const char c = i < close ? text[i] : ',';
          if (c == ',' || c == ')') {
            if (!rule.empty()) spec.rules.push_back(rule);
            rule.clear();
          } else if (nolint_ident_char(c)) {
            rule.push_back(c);
          }
        }
        end = close + 1;
      } else {
        spec.bare = true;  // malformed list: treat as bare
      }
    } else {
      spec.bare = true;
    }
    if (spec.rules.empty() && !spec.bare) spec.bare = true;
    specs.push_back(std::move(spec));
    pos = end;
  }
  return specs;
}

// True when `entry` (a name from a NOLINT rule list) addresses `rule`.
inline bool nolint_entry_matches(std::string_view entry,
                                 std::string_view rule) {
  if (entry == "*" || entry == rule) return true;
  constexpr std::string_view kPrefix = "sciera-";
  if (entry.starts_with(kPrefix) && entry.substr(kPrefix.size()) == rule) {
    return true;
  }
  if (rule.starts_with(kPrefix) && rule.substr(kPrefix.size()) == entry) {
    return true;
  }
  return false;
}

// Per-file suppression index: feed it each line's raw text, then ask
// whether a (line, rule) finding is suppressed.
class SuppressionIndex {
 public:
  void add_line(std::size_t line, std::string_view raw_text) {
    for (auto& spec : parse_nolint(raw_text)) {
      const std::size_t target = spec.nextline ? line + 1 : line;
      if (spec.bare) bare_lines_.push_back(target);
      for (auto& rule : spec.rules) {
        rule_lines_.emplace_back(target, std::move(rule));
      }
      if (spec.bare) legacy_lines_.push_back(line);
    }
  }

  [[nodiscard]] bool suppressed(std::size_t line,
                                std::string_view rule) const {
    for (const std::size_t l : bare_lines_) {
      if (l == line && rule != "legacy-nolint") return true;
    }
    for (const auto& [l, entry] : rule_lines_) {
      if (l == line && nolint_entry_matches(entry, rule)) return true;
    }
    return false;
  }

  // Lines carrying a legacy bare NOLINT (reported as `legacy-nolint`).
  [[nodiscard]] const std::vector<std::size_t>& legacy_lines() const {
    return legacy_lines_;
  }

 private:
  std::vector<std::size_t> bare_lines_;
  std::vector<std::pair<std::size_t, std::string>> rule_lines_;
  std::vector<std::size_t> legacy_lines_;
};

}  // namespace sciera::lintutil
