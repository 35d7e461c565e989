// Minimal C++ lexer for sciera_analyze. Produces a token stream
// (identifiers, numbers, string/char literals, punctuation) with line
// numbers, plus per-line comment text (for NOLINT markers) and the
// file's #include directives. Comment-, string-, raw-string- and
// digit-separator-aware, so rules never fire on documentation or literal
// contents, and an #include inside a comment or raw string is not an
// include. Not a full C++ front end — no preprocessing, no semantic
// analysis — but exact enough for token-pattern rules over a codebase
// that compiles.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sciera::lintutil {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  std::size_t line = 0;
};

struct IncludeDirective {
  std::size_t line = 0;
  std::string path;
  bool quoted = false;  // "path" vs <path>
};

struct LexedFile {
  std::vector<Token> tokens;
  // Raw comment text per line (both // and /* */; a block comment
  // spanning lines contributes to each line it covers).
  std::map<std::size_t, std::string> comments;
  std::vector<IncludeDirective> includes;
  std::size_t line_count = 0;
};

namespace lexer_detail {

inline bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Multi-character punctuators the analysis rules care about; maximal
// munch over this list, single characters otherwise.
inline constexpr std::string_view kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "+=",  "-=",  "*=", "/=", "%=", "&=", "|=", "^=",
    "&&",  "||",  "++",  "--",
};

// Records `include "path"` / `include <path>`, given the directive text
// after its `#` (directives never span lines in this codebase).
inline void record_include(std::string_view text, std::size_t line,
                           std::vector<IncludeDirective>& includes) {
  std::size_t p = text.find_first_not_of(" \t");
  if (p == std::string_view::npos || !text.substr(p).starts_with("include")) {
    return;
  }
  p = text.find_first_of("\"<", p + 7);
  if (p == std::string_view::npos) return;
  const bool quoted = text[p] == '"';
  const std::size_t stop = text.find(quoted ? '"' : '>', p + 1);
  if (stop == std::string_view::npos) return;
  includes.push_back({line, std::string{text.substr(p + 1, stop - p - 1)}, quoted});
}

}  // namespace lexer_detail

inline LexedFile lex(std::string_view src) {
  using lexer_detail::ident_char;
  using lexer_detail::ident_start;
  LexedFile out;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto comment_append = [&](std::size_t at, char c) {
    out.comments[at].push_back(c);
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') comment_append(line, src[i++]);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      comment_append(line, ' ');
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ++line;
        } else {
          comment_append(line, src[i]);
        }
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Identifier (possibly a raw-string prefix).
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      std::string_view word = src.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim" with optional encoding
      // prefix, glued directly to the opening quote.
      if (j < n && src[j] == '"' &&
          (word == "R" || word == "u8R" || word == "uR" || word == "UR" ||
           word == "LR")) {
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && src[k] != '(' && src[k] != '\n') delim.push_back(src[k++]);
        const std::string closer = ")" + delim + "\"";
        const std::size_t close = src.find(closer, k);
        const std::size_t stop =
            close == std::string_view::npos ? n : close + closer.size();
        const std::size_t start_line = line;
        for (std::size_t p = i; p < stop; ++p) {
          if (src[p] == '\n') ++line;
        }
        out.tokens.push_back({Token::Kind::kString,
                              std::string{src.substr(i, stop - i)},
                              start_line});
        i = stop;
        continue;
      }
      // Ordinary string with encoding prefix (u8"x", L"x", ...) is handled
      // below when the quote is reached; emit the prefix as an identifier
      // only if it is a real identifier (prefixes are consumed with the
      // string for cleanliness).
      if (j < n && src[j] == '"' &&
          (word == "u8" || word == "u" || word == "U" || word == "L")) {
        i = j;  // fall through to string scanning; prefix dropped
        continue;
      }
      out.tokens.push_back({Token::Kind::kIdent, std::string{word}, line});
      i = j;
      continue;
    }
    // Number (with C++14 digit separators and suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       (src[j] == '\'' && j + 1 < n && ident_char(src[j + 1])) ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back(
          {Token::Kind::kNumber, std::string{src.substr(i, j - i)}, line});
      i = j;
      continue;
    }
    // String literal.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"' && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      j = j < n ? j + 1 : n;
      out.tokens.push_back(
          {Token::Kind::kString, std::string{src.substr(i, j - i)}, line});
      i = j;
      continue;
    }
    // Character literal.
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '\'' && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      j = j < n ? j + 1 : n;
      out.tokens.push_back(
          {Token::Kind::kChar, std::string{src.substr(i, j - i)}, line});
      i = j;
      continue;
    }
    // A `#` that opens a line of code starts a directive. Only the main
    // scan reaches it, so directives inside comments and raw strings are
    // never recorded.
    if (c == '#' && (out.tokens.empty() || out.tokens.back().line != line)) {
      const std::size_t eol = std::min(src.find('\n', i), n);
      lexer_detail::record_include(src.substr(i + 1, eol - i - 1), line,
                                   out.includes);
    }
    // Punctuation, maximal munch.
    bool matched = false;
    for (const std::string_view p : lexer_detail::kPuncts) {
      if (src.substr(i).starts_with(p)) {
        out.tokens.push_back({Token::Kind::kPunct, std::string{p}, line});
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  out.line_count = line;
  return out;
}

}  // namespace sciera::lintutil
