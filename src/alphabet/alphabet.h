#ifndef CONDTD_ALPHABET_ALPHABET_H_
#define CONDTD_ALPHABET_ALPHABET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace condtd {

/// A symbol is an interned element name. Values are dense indices into an
/// Alphabet, so algorithms can use vectors instead of hash maps.
using Symbol = int32_t;

inline constexpr Symbol kInvalidSymbol = -1;

/// A word is a sequence of symbols: the child-element names below one
/// element occurrence, in document order.
using Word = std::vector<Symbol>;

/// Bidirectional mapping between element names and dense Symbol ids.
/// Interning order defines the id order; all algorithms treat ids as
/// opaque but use them for stable, reproducible tie-breaking.
class Alphabet {
 public:
  Alphabet() = default;

  /// Returns the id for `name`, interning it if new.
  Symbol Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidSymbol if never interned.
  Symbol Find(std::string_view name) const;

  /// Returns the name for an id; id must be valid.
  const std::string& Name(Symbol symbol) const { return names_.at(symbol); }

  /// Bounds-checked rendering for error messages and debug output: the
  /// interned name for a valid id, "#<id>" otherwise.
  std::string NameOrPlaceholder(Symbol symbol) const;

  /// Number of distinct symbols.
  int size() const { return static_cast<int>(names_.size()); }

  /// Forgets every name interned after the first `size`; the ids below
  /// `size` keep their names.
  void Truncate(int size);

  /// Interns every character of `text` as a one-letter name. Convenient
  /// for paper examples like "bacacdacde".
  Word WordFromChars(std::string_view text);

  /// Renders a word back to text: one-letter names are concatenated,
  /// longer names are space-separated.
  std::string WordToString(const Word& word) const;

  /// Rough resident bytes of the intern tables (see base/mem_estimate.h
  /// for the estimation contract). Part of a corpus's memory footprint
  /// next to SummaryStore::ApproxBytes.
  size_t ApproxBytes() const;

 private:
  /// Transparent hasher so `Intern`/`Find` can probe with the incoming
  /// string_view directly — no temporary std::string per lookup on the
  /// ingest hot path (one lookup per element plus one per child).
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, Symbol, StringHash, std::equal_to<>>
      index_;
};

}  // namespace condtd

#endif  // CONDTD_ALPHABET_ALPHABET_H_
