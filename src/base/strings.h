#ifndef CONDTD_BASE_STRINGS_H_
#define CONDTD_BASE_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace condtd {

/// Splits `text` at every occurrence of `sep`; keeps empty pieces.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// True for the XML definition of whitespace (space, tab, CR, LF).
inline bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Strict decimal integer parsing: an optional leading '-' followed by
/// at least one digit and nothing else, rejecting overflow. Unlike
/// std::atoll (undefined behavior on overflow, silently returns 0 on
/// junk) a false return is the only failure signal, so callers on
/// untrusted input — the state loader, the CLI — can produce a real
/// error instead of degenerate behavior.
bool ParseInt64(std::string_view text, int64_t* out);

/// As ParseInt64 but bounds-checked into int32.
bool ParseInt32(std::string_view text, int32_t* out);

/// `prefix` followed by `n` in decimal, as `"a" + std::to_string(n)`
/// would give, but built by appending: GCC 12 at -O3 reports a
/// -Wrestrict false positive for operator+(const char*, std::string&&).
std::string Numbered(std::string_view prefix, int64_t n);

}  // namespace condtd

#endif  // CONDTD_BASE_STRINGS_H_
