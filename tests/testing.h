#ifndef CONDTD_TESTS_TESTING_H_
#define CONDTD_TESTS_TESTING_H_

#include <string>
#include <vector>

#include "alphabet/alphabet.h"
#include "regex/ast.h"
#include "regex/parser.h"

namespace condtd {
namespace testing_util {

/// Parses a paper-notation regex over one-letter symbols, asserting
/// success. `alphabet` accumulates interned symbols.
inline ReRef ParseChars(const std::string& text, Alphabet* alphabet) {
  RegexParseOptions options;
  options.char_symbols = true;
  Result<ReRef> re = ParseRegex(text, alphabet, options);
  if (!re.ok()) {
    throw std::runtime_error("test regex failed to parse: " + text + ": " +
                             re.status().ToString());
  }
  return re.value();
}

/// Parses with multi-character identifiers (a1, a2, ...).
inline ReRef ParseNames(const std::string& text, Alphabet* alphabet) {
  Result<ReRef> re = ParseRegex(text, alphabet);
  if (!re.ok()) {
    throw std::runtime_error("test regex failed to parse: " + text + ": " +
                             re.status().ToString());
  }
  return re.value();
}

/// Two roots: a saved state lists root `b` before the element lines,
/// although the saver numbered `c` first.
inline const std::vector<std::string> kTwoRootDocs = {
    "<a><c/><b><c/></b></a>", "<b><c/></b>"};

/// The SOA of `r` has an edge x -> z, and the saver numbered state `y`
/// before `z`.
inline const std::vector<std::string> kSoaOrderDocs = {
    "<r><x/></r>", "<r><y/></r>", "<r><x/><z/></r>"};

/// Builds words from one-letter strings.
inline std::vector<Word> WordsFromStrings(
    const std::vector<std::string>& strings, Alphabet* alphabet) {
  std::vector<Word> words;
  words.reserve(strings.size());
  for (const std::string& s : strings) {
    words.push_back(alphabet->WordFromChars(s));
  }
  return words;
}

}  // namespace testing_util
}  // namespace condtd

#endif  // CONDTD_TESTS_TESTING_H_
