// parsemi-check lexer — the shared token stream both analysis phases run
// on. One deliberately small C++ lexer: identifiers, numbers, strings
// (incl. raw strings), longest-match punctuators. Comments are stripped
// into a per-line side table (waivers are read from there) and preprocessor
// lines are skipped entirely.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parsemi_check {

enum class tok_kind : uint8_t { ident, number, str, punct };

struct token {
  tok_kind kind;
  std::string text;
  int line = 0;
};

// One source file, lexed: tokens with comments and preprocessor lines
// stripped, plus the per-line comment text.
struct lexed {
  std::vector<token> tokens;
  std::map<int, std::string> comments;  // line -> concatenated comment text
  int last_line = 1;
};

lexed lex(std::string_view text);

inline bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
inline bool ident_char(char c) {
  return ident_start(c) || (c >= '0' && c <= '9');
}

inline bool is(const token& t, std::string_view s) { return t.text == s; }
inline bool is_ident(const token& t) { return t.kind == tok_kind::ident; }

// Index of the matching closer for the opener at `open` ("(", "[", "{").
// Returns tokens.size() when unbalanced (callers then give up quietly —
// the compiler will have plenty to say about such a file).
size_t match_forward(const std::vector<token>& toks, size_t open,
                     std::string_view open_s, std::string_view close_s);

// Matches a template argument list starting at the '<' at `open`. Angle
// brackets are not real brackets, so this is heuristic: it tracks <>
// nesting and bails out on tokens that cannot appear in a type argument
// position (";", "{"), returning tokens.size().
size_t match_angles(const std::vector<token>& toks, size_t open);

// Statement-level keywords after which a bare ident is NOT a declaration.
const std::set<std::string>& non_decl_keywords();

// Control-flow keywords that look like `name (` but are not calls or
// function definitions.
const std::set<std::string>& control_keywords();

}  // namespace parsemi_check
