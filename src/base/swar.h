#ifndef CONDTD_BASE_SWAR_H_
#define CONDTD_BASE_SWAR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace condtd {
namespace swar {

/// SWAR (SIMD-within-a-register) byte scanning. The ingestion hot path
/// spends most of its cycles finding the next structural byte ('<', '&',
/// a quote) or the end of a name run; these helpers do that 8 bytes per
/// iteration with plain 64-bit arithmetic — portable, no intrinsics
/// beyond memcpy/ctz, and exactly as fast as a hand-rolled SSE2 loop for
/// the short-to-medium runs XML produces.

inline uint64_t LoadUnaligned64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// 0x2B2B2B2B2B2B2B2B-style broadcast of one byte into every lane.
inline constexpr uint64_t Broadcast(char byte) {
  return 0x0101010101010101ull * static_cast<uint8_t>(byte);
}

/// Returns a mask with 0x80 set in every lane of `word` that is zero
/// (the classic haszero trick). Lanes with 0x80 already set in `word`
/// never false-positive because `~word` clears them.
inline constexpr uint64_t ZeroLanes(uint64_t word) {
  return (word - 0x0101010101010101ull) & ~word & 0x8080808080808080ull;
}

inline constexpr bool IsLittleEndian() {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
  return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
  return false;  // unknown: take the scalar path
#endif
}

/// Index (0-7) of the lowest-address marked lane in a ZeroLanes mask.
inline int FirstMarkedLane(uint64_t mask) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(mask) >> 3;
#else
  int lane = 0;
  while ((mask & 0xFFu) == 0) {
    mask >>= 8;
    ++lane;
  }
  return lane;
#endif
}

constexpr size_t kNpos = static_cast<size_t>(-1);

/// First index >= `pos` where `text[i] == a || text[i] == b`, or kNpos.
/// One pass over the buffer where the previous code needed two
/// (find('<') then find('&') over the same run).
inline size_t FindEither(std::string_view text, size_t pos, char a, char b) {
  const char* data = text.data();
  const size_t size = text.size();
  size_t i = pos;
  if (IsLittleEndian()) {
    const uint64_t lane_a = Broadcast(a);
    const uint64_t lane_b = Broadcast(b);
    while (i + 8 <= size) {
      uint64_t word = LoadUnaligned64(data + i);
      uint64_t hit = ZeroLanes(word ^ lane_a) | ZeroLanes(word ^ lane_b);
      if (hit != 0) return i + FirstMarkedLane(hit);
      i += 8;
    }
  }
  for (; i < size; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return kNpos;
}

/// First index >= `pos` of byte `c`, or kNpos. memchr lowers to the
/// platform's vectorized scanner, which beats a SWAR loop on long runs.
inline size_t FindByte(std::string_view text, size_t pos, char c) {
  if (pos >= text.size()) return kNpos;
  const void* hit = std::memchr(text.data() + pos, c, text.size() - pos);
  if (hit == nullptr) return kNpos;
  return static_cast<size_t>(static_cast<const char*>(hit) - text.data());
}

/// First index >= `pos` of '&', or kNpos — the entity-decoder's scan.
/// Word-at-a-time: text/attribute runs handed to the decoder are short
/// to medium (a few bytes to a few hundred), where the 8-bytes-per-
/// iteration SWAR loop wins over memchr's call + alignment preamble.
/// The loads are memcpy-based, so a '&' sitting at the buffer tail or
/// an mmap page boundary is read safely (no past-the-end touch).
inline size_t FindAmp(std::string_view text, size_t pos) {
  const char* data = text.data();
  const size_t size = text.size();
  size_t i = pos;
  if (IsLittleEndian()) {
    const uint64_t lane_amp = Broadcast('&');
    while (i + 8 <= size) {
      uint64_t hit = ZeroLanes(LoadUnaligned64(data + i) ^ lane_amp);
      if (hit != 0) return i + FirstMarkedLane(hit);
      i += 8;
    }
  }
  for (; i < size; ++i) {
    if (data[i] == '&') return i;
  }
  return kNpos;
}

/// Result of MatchNamedEntity: `length` bytes consumed starting at the
/// '&' (0 = no match) and the replacement character.
struct EntityMatch {
  char replacement = '\0';
  uint8_t length = 0;
};

/// Matches one of the five XML named entities (&amp; &lt; &gt; &apos;
/// &quot;) at `amp`, which must index a '&' in `text`. One unaligned
/// load + masked compares instead of five string comparisons; the load
/// is memcpy-guarded by the remaining length, so a truncated reference
/// at the buffer tail (or an mmap page end) reads only what exists and
/// simply fails to match.
inline EntityMatch MatchNamedEntity(std::string_view text, size_t amp) {
  const size_t avail = text.size() - amp - 1;  // bytes after the '&'
  const char* p = text.data() + amp + 1;
  if (IsLittleEndian()) {
    uint64_t w = 0;
    std::memcpy(&w, p, avail < 5 ? avail : 5);
    // Entity bodies packed little-endian, first byte in the low lane.
    constexpr uint64_t kLt = 0x3B746Cull;      // "lt;"
    constexpr uint64_t kGt = 0x3B7467ull;      // "gt;"
    constexpr uint64_t kAmp = 0x3B706D61ull;   // "amp;"
    constexpr uint64_t kApos = 0x3B736F7061ull;  // "apos;"
    constexpr uint64_t kQuot = 0x3B746F7571ull;  // "quot;"
    if ((w & 0xFFFFFFull) == kLt) return {'<', 4};
    if ((w & 0xFFFFFFull) == kGt) return {'>', 4};
    if ((w & 0xFFFFFFFFull) == kAmp) return {'&', 5};
    if ((w & 0xFFFFFFFFFFull) == kApos) return {'\'', 6};
    if ((w & 0xFFFFFFFFFFull) == kQuot) return {'"', 6};
    return {};
  }
  // Endianness unknown: scalar compares, same semantics.
  if (avail >= 3 && std::memcmp(p, "lt;", 3) == 0) return {'<', 4};
  if (avail >= 3 && std::memcmp(p, "gt;", 3) == 0) return {'>', 4};
  if (avail >= 4 && std::memcmp(p, "amp;", 4) == 0) return {'&', 5};
  if (avail >= 5 && std::memcmp(p, "apos;", 5) == 0) return {'\'', 6};
  if (avail >= 5 && std::memcmp(p, "quot;", 5) == 0) return {'"', 6};
  return {};
}

/// Character-class bits for the XML subset this lexer accepts. The
/// table replaces per-byte arithmetic classifiers: one L1 load + test
/// instead of a chain of compares, and it pins the lexer's name alphabet
/// to ASCII.
enum CharClass : unsigned char {
  kNameStartChar = 1,  ///< [A-Za-z_:]
  kNameChar = 2,       ///< [A-Za-z0-9_:.-]
  kSpaceChar = 4,      ///< space, \t, \r, \n
};

extern const unsigned char kCharClass[256];

inline bool IsNameStart(char c) {
  return (kCharClass[static_cast<unsigned char>(c)] & kNameStartChar) != 0;
}

inline bool IsName(char c) {
  return (kCharClass[static_cast<unsigned char>(c)] & kNameChar) != 0;
}

inline bool IsSpace(char c) {
  return (kCharClass[static_cast<unsigned char>(c)] & kSpaceChar) != 0;
}

/// First index >= `pos` that is not a name character (end of a tag or
/// attribute name run).
inline size_t FindNameEnd(std::string_view text, size_t pos) {
  const char* data = text.data();
  const size_t size = text.size();
  // Names are short (rarely > 16 bytes); a 4-way unrolled table loop
  // keeps the branch predictor hot without SWAR setup cost.
  while (pos + 4 <= size) {
    if (!IsName(data[pos])) return pos;
    if (!IsName(data[pos + 1])) return pos + 1;
    if (!IsName(data[pos + 2])) return pos + 2;
    if (!IsName(data[pos + 3])) return pos + 3;
    pos += 4;
  }
  while (pos < size && IsName(data[pos])) ++pos;
  return pos;
}

/// First index >= `pos` that is not XML whitespace.
inline size_t SkipSpace(std::string_view text, size_t pos) {
  const char* data = text.data();
  const size_t size = text.size();
  while (pos < size && IsSpace(data[pos])) ++pos;
  return pos;
}

}  // namespace swar
}  // namespace condtd

#endif  // CONDTD_BASE_SWAR_H_
