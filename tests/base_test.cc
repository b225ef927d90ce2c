#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/alphabet.h"
#include "base/arena.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/swar.h"

namespace condtd {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::ParseError("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kParseError);
  EXPECT_EQ(err.ToString(), "ParseError: bad input");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(Result, ValueAndError) {
  // The error case comes first: in the other order GCC 12 at -O3 warns
  // that destroying the value case may read an uninitialized Status.
  Result<int> err = Status::NotFound("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
}

TEST(Strings, SplitJoinStrip) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(JoinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("<!ELEMENT", "<!"));
  EXPECT_FALSE(StartsWith("<", "<!"));
  EXPECT_TRUE(EndsWith("file.dtd", ".dtd"));
}

TEST(Alphabet, InterningIsStableAndBidirectional) {
  Alphabet alphabet;
  Symbol a = alphabet.Intern("author");
  Symbol b = alphabet.Intern("book");
  EXPECT_EQ(alphabet.Intern("author"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(alphabet.Name(a), "author");
  EXPECT_EQ(alphabet.Find("book"), b);
  EXPECT_EQ(alphabet.Find("unknown"), kInvalidSymbol);
  EXPECT_EQ(alphabet.size(), 2);
}

TEST(Alphabet, WordHelpers) {
  Alphabet alphabet;
  Word w = alphabet.WordFromChars("abca");
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], w[3]);
  EXPECT_EQ(alphabet.WordToString(w), "abca");
  Symbol longname = alphabet.Intern("year");
  EXPECT_EQ(alphabet.WordToString({w[0], longname}), "a year");
}

TEST(Swar, FindEitherHitsEveryOffsetInTheWord) {
  // Exercise each lane position of the 8-byte SWAR step plus the scalar
  // tail, for both needles, at several starting offsets.
  for (size_t target = 0; target < 20; ++target) {
    for (char needle : {'<', '&'}) {
      std::string text(20, 'x');
      text[target] = needle;
      for (size_t start = 0; start <= target; ++start) {
        EXPECT_EQ(swar::FindEither(text, start, '<', '&'), target)
            << "target " << target << " start " << start;
      }
      EXPECT_EQ(swar::FindEither(text, target + 1, '<', '&'), swar::kNpos);
    }
  }
  EXPECT_EQ(swar::FindEither("", 0, '<', '&'), swar::kNpos);
  EXPECT_EQ(swar::FindEither("xxx", 3, '<', '&'), swar::kNpos);
  // Earliest of the two needles wins, regardless of which parameter it
  // came in as.
  EXPECT_EQ(swar::FindEither("ab&cd<ef", 0, '<', '&'), 2u);
  EXPECT_EQ(swar::FindEither("ab<cd&ef", 0, '<', '&'), 2u);
}

TEST(Swar, FindEitherIgnoresHighBitBytes) {
  // The haszero trick must not false-positive on 0x80-set bytes
  // (multi-byte UTF-8 in text runs) or on bytes one below the needle.
  std::string text = "\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9";
  text += ";";  // '<' - 1 == ';'
  text += "<";
  EXPECT_EQ(swar::FindEither(text, 0, '<', '&'), text.size() - 1);
}

TEST(Swar, CharClassMatchesReferenceClassifiers) {
  for (int c = 0; c < 256; ++c) {
    char ch = static_cast<char>(c);
    bool ascii_alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    bool ascii_digit = c >= '0' && c <= '9';
    EXPECT_EQ(swar::IsNameStart(ch), ascii_alpha || c == '_' || c == ':')
        << "byte " << c;
    EXPECT_EQ(swar::IsName(ch), ascii_alpha || ascii_digit || c == '_' ||
                                    c == ':' || c == '-' || c == '.')
        << "byte " << c;
    EXPECT_EQ(swar::IsSpace(ch),
              c == ' ' || c == '\t' || c == '\r' || c == '\n')
        << "byte " << c;
  }
}

TEST(Swar, FindNameEndAndSkipSpace) {
  EXPECT_EQ(swar::FindNameEnd("author ", 0), 6u);
  EXPECT_EQ(swar::FindNameEnd("a", 0), 1u);          // runs off the end
  EXPECT_EQ(swar::FindNameEnd("ab:cd-ef.gh xx", 0), 11u);
  EXPECT_EQ(swar::FindNameEnd("<tag", 0), 0u);        // not a name char
  EXPECT_EQ(swar::SkipSpace("  \t\r\n x", 0), 6u);
  EXPECT_EQ(swar::SkipSpace("x", 0), 0u);
  EXPECT_EQ(swar::SkipSpace("   ", 0), 3u);           // all whitespace
}

TEST(Arena, CopyAndAlignment) {
  Arena arena(/*first_block_bytes=*/64);
  std::string_view a = arena.Copy("hello");
  std::string_view b = arena.Copy("world, longer than the first");
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "world, longer than the first");
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Allocate(3)) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Allocate(9)) % 8, 0u);
  EXPECT_GT(arena.bytes_used(), 0u);
}

TEST(Arena, GrowsAcrossBlocksWithoutInvalidatingEarlierCopies) {
  Arena arena(/*first_block_bytes=*/16);
  std::vector<std::string> sources;
  std::vector<std::string_view> views;
  for (int i = 0; i < 200; ++i) {
    sources.push_back("string number " + std::to_string(i));
    views.push_back(arena.Copy(sources.back()));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(views[i], sources[i]) << i;
  }
}

TEST(Arena, ResetKeepsCapacityAndReusesBlocks) {
  Arena arena(/*first_block_bytes=*/32);
  for (int i = 0; i < 50; ++i) arena.Copy("some per-document sample text");
  size_t footprint = arena.footprint();
  EXPECT_GT(footprint, 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.footprint(), footprint);  // blocks retained
  // Steady state: the same volume again must not grow the footprint.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(arena.Copy("some per-document sample text"),
              "some per-document sample text");
  }
  EXPECT_EQ(arena.footprint(), footprint);
}

TEST(Arena, AppendExtendsInPlaceWhenHeadIsTopOfArena) {
  Arena arena(/*first_block_bytes=*/1024);
  std::string_view acc;
  std::string mirror;
  for (int i = 0; i < 20; ++i) {
    std::string piece = " piece" + std::to_string(i);
    const char* before = acc.data();
    acc = arena.Append(acc, piece);
    mirror += piece;
    ASSERT_EQ(acc, mirror);
    // Consecutive appends with room in the block extend in place.
    if (i > 0) {
      EXPECT_EQ(acc.data(), before);
    }
  }
}

TEST(Arena, AppendRelocatesWhenHeadIsNotTopOfArena) {
  Arena arena(/*first_block_bytes=*/1024);
  std::string_view head = arena.Copy("head");
  arena.Copy("an intervening allocation");  // head is no longer on top
  std::string_view combined = arena.Append(head, "+tail");
  EXPECT_EQ(combined, "head+tail");
  EXPECT_EQ(head, "head");  // original copy untouched
}

}  // namespace
}  // namespace condtd
