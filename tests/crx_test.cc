#include "crx/crx.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "automaton/two_t_inf.h"
#include "base/fold_scratch.h"
#include "base/rng.h"
#include "base/strings.h"
#include "gen/random_regex.h"
#include "gen/regex_sampler.h"
#include "gen/representative.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/properties.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;
using testing_util::WordsFromStrings;

TEST(Crx, PaperExample1) {
  // Example 1: u = abd, v = bcdee, w = cade yields (a+b+c)+ d e*.
  Alphabet alphabet;
  Result<ReRef> re =
      CrxInfer(WordsFromStrings({"abd", "bcdee", "cade"}, &alphabet));
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_EQ(ToString(re.value(), alphabet, PrintStyle::kPaper),
            "(a + b + c)+de*");
}

TEST(Crx, PaperExamples2Through4) {
  // Examples 2-4: W = {abccde, cccad, bfegg, bfehi} yields
  // (a+b+c)+ (d+f) e? g* h? i?.
  Alphabet alphabet;
  Result<ReRef> re = CrxInfer(
      WordsFromStrings({"abccde", "cccad", "bfegg", "bfehi"}, &alphabet));
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_EQ(ToString(re.value(), alphabet, PrintStyle::kPaper),
            "(a + b + c)+(d + f)e?g*h?i?");
}

TEST(Crx, NonLinearOrderExample) {
  // Section 7: W = {abc, ade, abe} yields a linearization of the partial
  // order with every non-initial factor optional. The paper prints
  // a·b?·d?·c?·e?; our deterministic tie-break produces the equally
  // valid topological sort a·b?·c?·d?·e? ("the order of the factors
  // depends on the topological sort").
  Alphabet alphabet;
  Result<ReRef> re =
      CrxInfer(WordsFromStrings({"abc", "ade", "abe"}, &alphabet));
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_EQ(ToString(re.value(), alphabet, PrintStyle::kPaper),
            "ab?c?d?e?");
  // All three words stay in the language (Theorem 3).
  Matcher matcher(re.value());
  for (const Word& w : WordsFromStrings({"abc", "ade", "abe"}, &alphabet)) {
    EXPECT_TRUE(matcher.Matches(w));
  }
}

TEST(Crx, OutputIsAlwaysChare) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    ReRef target = RandomSore(2 + rng.NextBelow(10), &rng);
    std::vector<Word> sample = SampleWords(target, 20, &rng);
    Result<ReRef> re = CrxInfer(sample);
    if (!re.ok()) continue;  // all-empty sample
    EXPECT_TRUE(IsChare(re.value()));
  }
}

// Theorem 3: W ⊆ L(r_W) on arbitrary random samples.
TEST(Crx, SoundnessOnRandomSamples) {
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    int n = 1 + static_cast<int>(rng.NextBelow(10));
    // Random words, not tied to any RE.
    std::vector<Word> sample;
    int count = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < count; ++i) {
      Word w;
      int len = static_cast<int>(rng.NextBelow(12));
      for (int j = 0; j < len; ++j) {
        w.push_back(static_cast<Symbol>(rng.NextBelow(n)));
      }
      sample.push_back(std::move(w));
    }
    Result<ReRef> re = CrxInfer(sample);
    if (!re.ok()) {
      // Only the all-empty sample may fail.
      for (const Word& w : sample) EXPECT_TRUE(w.empty());
      continue;
    }
    Matcher matcher(re.value());
    for (const Word& w : sample) {
      EXPECT_TRUE(matcher.Matches(w));
    }
  }
}

// Theorem 4: every CHARE is learnable from some sample — the
// representative sample plus multiplicity witnesses suffices in practice.
class CrxRecoversChare : public ::testing::TestWithParam<int> {};

TEST_P(CrxRecoversChare, FromGeneratedSample) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    ReRef target = RandomChare(GetParam(), &rng);
    // Representative sample (all 2-grams) plus random derivations to
    // witness the ?/+/* multiplicities.
    std::vector<Word> sample = RepresentativeSample(target);
    for (const Word& w : SampleWords(target, 60, &rng)) {
      sample.push_back(w);
    }
    Result<ReRef> learned = CrxInfer(sample);
    ASSERT_TRUE(learned.ok()) << learned.status().ToString();
    Alphabet names;
    for (int i = 0; i < GetParam(); ++i) {
      names.Intern(Numbered("a", i));
    }
    EXPECT_TRUE(LanguageSubset(target, learned.value()))
        << "target " << ToString(target, names) << " learned "
        << ToString(learned.value(), names);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrxRecoversChare,
                         ::testing::Values(2, 4, 6, 10, 16));

TEST(Crx, LinearSampleSufficesForRepeatedDisjunction) {
  // Section 7's key claim: (a1+...+an)* is learned from the O(n) cyclic
  // 2-gram witnesses {a1a2, a2a3, ..., an a1} (plus an empty word and a
  // repeat witness), not the n^2 sample rewrite needs.
  const int n = 20;
  Alphabet alphabet;
  std::vector<Word> sample;
  for (int i = 0; i < n; ++i) {
    Word w = {static_cast<Symbol>(i), static_cast<Symbol>((i + 1) % n)};
    sample.push_back(w);
  }
  sample.push_back(Word{});  // zero-occurrence witness
  for (int i = 0; i < n; ++i) alphabet.Intern(Numbered("a", i + 1));
  Result<ReRef> learned = CrxInfer(sample);
  ASSERT_TRUE(learned.ok());
  std::string expected = "(";
  for (int i = 0; i < n; ++i) {
    if (i > 0) expected += " | ";
    expected += Numbered("a", i + 1);
  }
  expected += ")*";
  EXPECT_EQ(ToString(learned.value(), alphabet), expected);
}

TEST(Crx, IncrementalEqualsBatch) {
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    ReRef target = RandomChare(6, &rng);
    std::vector<Word> sample = SampleWords(target, 30, &rng);

    CrxState batch;
    batch.AddWords(sample);
    CrxState incremental;
    for (const Word& w : sample) incremental.AddWord(w);

    const Soa soa = Infer2T(sample);
    Result<ReRef> a = batch.Infer(soa);
    Result<ReRef> b = incremental.Infer(soa);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_TRUE(StructurallyEqual(a.value(), b.value()));
    }
  }
}

TEST(Crx, OrderInsensitive) {
  Alphabet alphabet;
  std::vector<Word> sample =
      WordsFromStrings({"abccde", "cccad", "bfegg", "bfehi"}, &alphabet);
  CrxState forward;
  forward.AddWords(sample);
  CrxState backward;
  for (auto it = sample.rbegin(); it != sample.rend(); ++it) {
    backward.AddWord(*it);
  }
  const Soa soa = Infer2T(sample);
  ASSERT_TRUE(forward.Infer(soa).ok());
  EXPECT_TRUE(StructurallyEqual(forward.Infer(soa).value(),
                                backward.Infer(soa).value()));
}

TEST(Crx, EmptySampleFails) {
  EXPECT_FALSE(CrxInfer({}).ok());
  EXPECT_FALSE(CrxInfer({Word{}}).ok());
}

TEST(Crx, EmptyWordMakesEverythingOptional) {
  Alphabet alphabet;
  std::vector<Word> sample = WordsFromStrings({"ab"}, &alphabet);
  sample.push_back(Word{});
  Result<ReRef> re = CrxInfer(sample);
  ASSERT_TRUE(re.ok());
  EXPECT_TRUE(Nullable(re.value()));
  EXPECT_EQ(ToString(re.value(), alphabet), "a? b?");
}

TEST(Crx, QualifierSelection) {
  Alphabet alphabet;
  // d exactly once everywhere; e sometimes absent, never repeated;
  // f always present, sometimes repeated; g sometimes absent, repeated.
  Result<ReRef> re = CrxInfer(
      WordsFromStrings({"defg", "dffgg", "df"}, &alphabet));
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(ToString(re.value(), alphabet, PrintStyle::kPaper), "de?f+g*");
}

TEST(Crx, NoiseThresholdDropsRareSymbols) {
  Alphabet alphabet;
  std::vector<std::string> strings(50, "ab");
  strings.push_back("axb");  // single intruder occurrence of x
  Result<ReRef> with_noise =
      CrxInfer(WordsFromStrings(strings, &alphabet));
  ASSERT_TRUE(with_noise.ok());
  EXPECT_NE(ToString(with_noise.value(), alphabet).find("x"),
            std::string::npos);

  std::vector<Word> sample = WordsFromStrings(strings, &alphabet);
  CrxState state;
  state.AddWords(sample);
  Result<ReRef> filtered =
      state.Infer(Infer2T(sample), /*min_symbol_support=*/5);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(ToString(filtered.value(), alphabet), "a b");
}

// Theorem 5: when the induced partial order is linear, CRX's output is
// syntactically optimal — recovery of the exact target CHARE (up to
// commutativity of +) from a characteristic sample.
class CrxSyntacticOptimality : public ::testing::TestWithParam<int> {};

TEST_P(CrxSyntacticOptimality, LinearOrderRecoversExactExpression) {
  Rng rng(9000 + GetParam());
  int recovered = 0;
  int linear_cases = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ReRef target = RandomChare(GetParam(), &rng);
    std::vector<Word> sample = RepresentativeSample(target);
    for (const Word& w : SampleWords(target, 150, &rng)) sample.push_back(w);
    // The representative sample of a CHARE whose factors all touch
    // (every consecutive pair witnessed) induces a linear order, except
    // when adjacent optional factors hide each other; only count the
    // cases where the exact recovery is observed and assert it dominates.
    Result<ReRef> learned = CrxInfer(sample);
    ASSERT_TRUE(learned.ok());
    ++linear_cases;
    if (StructurallyEqual(learned.value(), target)) ++recovered;
  }
  // Exact syntactic recovery in the overwhelming majority of cases.
  EXPECT_GE(recovered * 10, linear_cases * 8)
      << recovered << "/" << linear_cases;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrxSyntacticOptimality,
                         ::testing::Values(3, 5, 8, 12));

TEST(Crx, SingleSymbolLanguages) {
  Alphabet alphabet;
  EXPECT_EQ(ToString(CrxInfer(WordsFromStrings({"a"}, &alphabet)).value(),
                     alphabet),
            "a");
  EXPECT_EQ(
      ToString(CrxInfer(WordsFromStrings({"a", "aa"}, &alphabet)).value(),
               alphabet),
      "a+");
  std::vector<Word> with_empty = WordsFromStrings({"a", "aa"}, &alphabet);
  with_empty.push_back(Word{});
  EXPECT_EQ(ToString(CrxInfer(with_empty).value(), alphabet), "a*");
}

TEST(Crx, HistogramDeduplicationKeepsSummarySmall) {
  CrxState state;
  for (int i = 0; i < 10000; ++i) {
    state.AddWord({0, 1});
    state.AddWord({0, 1, 1});
  }
  EXPECT_EQ(state.num_words(), 20000);
  EXPECT_EQ(state.num_distinct_histograms(), 2);
}

// --- the flat histogram pool against a naive multiset ----------------------

using SortedMultiset = std::vector<std::pair<CrxState::Histogram, int64_t>>;

/// The summary CrxState keeps, built the obvious way: a std::map from
/// each word's histogram to its number of words, plus the ε count.
struct NaiveCrx {
  std::map<CrxState::Histogram, int64_t> histograms;
  int64_t empty = 0;
  int64_t words = 0;

  void Add(const Word& word, int64_t multiplicity = 1) {
    words += multiplicity;
    if (word.empty()) {
      empty += multiplicity;
      return;
    }
    std::map<Symbol, int> counts;
    for (Symbol s : word) ++counts[s];
    histograms[CrxState::Histogram(counts.begin(), counts.end())] +=
        multiplicity;
  }
};

void ExpectMatchesNaive(const CrxState& state, const NaiveCrx& naive) {
  EXPECT_EQ(state.SortedHistograms(),
            SortedMultiset(naive.histograms.begin(), naive.histograms.end()));
  EXPECT_EQ(state.num_distinct_histograms(),
            static_cast<int>(naive.histograms.size()));
  EXPECT_EQ(state.empty_count(), naive.empty);
  EXPECT_EQ(state.num_words(), naive.words);
}

/// Random words, ε included, over a few symbols below the dense fold
/// window and a few at or above it, so both histogram kernels run.
std::vector<Word> RandomWords(Rng* rng, int count) {
  std::vector<Word> words;
  for (int i = 0; i < count; ++i) {
    Word word;
    const int length = static_cast<int>(rng->NextBelow(10));
    const bool wide = rng->Bernoulli(0.3);
    for (int j = 0; j < length; ++j) {
      Symbol s = static_cast<Symbol>(rng->NextBelow(6));
      if (wide && rng->Bernoulli(0.5)) s += kDenseFoldWindow;
      word.push_back(s);
    }
    words.push_back(std::move(word));
  }
  return words;
}

TEST(CrxPool, MatchesNaiveMultisetOnRandomWords) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    CrxState state;
    NaiveCrx naive;
    for (const Word& word : RandomWords(&rng, 200)) {
      state.AddWord(word);
      naive.Add(word);
    }
    ExpectMatchesNaive(state, naive);
  }
}

TEST(CrxPool, WeightedFoldsMatchRepeatedFolds) {
  Rng rng(77);
  CrxState weighted;
  CrxState repeated;
  NaiveCrx naive;
  for (const Word& word : RandomWords(&rng, 300)) {
    const int64_t k = 1 + static_cast<int64_t>(rng.NextBelow(5));
    weighted.AddWord(word, k);
    for (int64_t i = 0; i < k; ++i) repeated.AddWord(word);
    naive.Add(word, k);
  }
  ExpectMatchesNaive(weighted, naive);
  ExpectMatchesNaive(repeated, naive);
}

TEST(CrxPool, ShardsMergeInEitherOrderAndThroughARemap) {
  Rng rng(31);
  std::vector<Word> first = RandomWords(&rng, 150);
  std::vector<Word> second = RandomWords(&rng, 150);
  NaiveCrx naive;
  CrxState a;
  CrxState b;
  for (const Word& word : first) {
    a.AddWord(word);
    naive.Add(word);
  }
  for (const Word& word : second) {
    b.AddWord(word);
    naive.Add(word);
  }
  CrxState ab = a;
  ab.MergeFrom(b);
  CrxState ba = b;
  ba.MergeFrom(a);
  ExpectMatchesNaive(ab, naive);
  ExpectMatchesNaive(ba, naive);

  // A shard that interned its alphabet in reverse: its ids run backwards
  // through [0, kIds), and the remap turns them around again.
  constexpr Symbol kIds = kDenseFoldWindow + 6;
  std::vector<Symbol> remap(kIds);
  for (Symbol s = 0; s < kIds; ++s) remap[s] = kIds - 1 - s;
  CrxState reversed;
  for (const Word& word : second) {
    Word local;
    for (Symbol s : word) local.push_back(kIds - 1 - s);
    reversed.AddWord(local);
  }
  CrxState remapped = a;
  remapped.MergeFrom(reversed, remap);
  ExpectMatchesNaive(remapped, naive);
}

TEST(CrxPool, ManyDistinctHistogramsGrowTheSlotArray) {
  CrxState state;
  NaiveCrx naive;
  // 1 500 distinct histograms, each folded three times, interleaved so
  // every growth re-seats entries that later lookups must still find.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1500; ++i) {
      Word word(1 + i % 7, static_cast<Symbol>(i / 7));
      word.push_back(static_cast<Symbol>(300 + i % 11));
      state.AddWord(word);
      naive.Add(word);
    }
  }
  EXPECT_EQ(state.num_distinct_histograms(), 1500);
  ExpectMatchesNaive(state, naive);
}

TEST(CrxPool, CopiedStateKeepsAcceptingWords) {
  Rng rng(5);
  std::vector<Word> head = RandomWords(&rng, 100);
  std::vector<Word> tail = RandomWords(&rng, 100);
  CrxState original;
  NaiveCrx naive_head;
  for (const Word& word : head) {
    original.AddWord(word);
    naive_head.Add(word);
  }
  CrxState copy(original);
  NaiveCrx naive_all = naive_head;
  for (const Word& word : tail) {
    copy.AddWord(word);
    naive_all.Add(word);
  }
  ExpectMatchesNaive(copy, naive_all);
  ExpectMatchesNaive(original, naive_head);
}

}  // namespace
}  // namespace condtd
