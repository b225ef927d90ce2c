#include "base/strings.h"

namespace condtd {

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsXmlWhitespace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsXmlWhitespace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  bool negative = false;
  size_t i = 0;
  if (i < text.size() && text[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= text.size()) return false;
  // Accumulate negated so INT64_MIN parses without overflowing.
  int64_t value = 0;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') return false;
    int digit = c - '0';
    if (value < (INT64_MIN + digit) / 10) return false;
    value = value * 10 - digit;
  }
  if (!negative) {
    if (value == INT64_MIN) return false;
    value = -value;
  }
  *out = value;
  return true;
}

bool ParseInt32(std::string_view text, int32_t* out) {
  int64_t wide;
  if (!ParseInt64(text, &wide)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) return false;
  *out = static_cast<int32_t>(wide);
  return true;
}

std::string Numbered(std::string_view prefix, int64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace condtd
