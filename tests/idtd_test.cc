#include "idtd/idtd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "automaton/two_t_inf.h"
#include "base/file.h"
#include "base/rng.h"
#include "base/strings.h"
#include "gen/corpus.h"
#include "gen/random_regex.h"
#include "gen/regex_sampler.h"
#include "gen/representative.h"
#include "gen/reservoir.h"
#include "idtd/repair.h"
#include "gfa/rewrite.h"
#include "obs/metrics.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/normalize.h"
#include "regex/properties.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;
using testing_util::WordsFromStrings;

TEST(Repair, EnableDisjunctionRestoresFigure1FromFigure2) {
  // Section 6's worked example: the Figure 2 automaton (inferred from
  // only two strings) is repaired by enable-disjunction on {a, c}; the
  // added edges are exactly the observations separating Figure 2 from
  // Figure 1.
  Alphabet alphabet;
  std::vector<Word> partial =
      WordsFromStrings({"bacacdacde", "cbacdbacde"}, &alphabet);
  Soa soa2 = Infer2T(partial);
  std::vector<Word> full = WordsFromStrings(
      {"bacacdacde", "cbacdbacde", "abccaadcde"}, &alphabet);
  Soa soa1 = Infer2T(full);

  Gfa gfa = Gfa::FromSoa(soa2);
  ASSERT_EQ(RewriteFixpoint(&gfa), 0);  // rewrite is stuck on Figure 2
  ASSERT_TRUE(EnableDisjunction(&gfa, /*k=*/2));
  // After the repair the edge set matches Figure 1: 5 states, the six
  // missing 2-grams {aa, ab, ad, bc, cc, dc} plus initial marker a.
  Gfa expected = Gfa::FromSoa(soa1);
  EXPECT_EQ(gfa.NumEdges(), expected.NumEdges());
  for (int v : expected.LiveNodes()) {
    for (int w : expected.Out(v)) {
      EXPECT_TRUE(gfa.HasEdge(v, w)) << v << "->" << w;
    }
  }
}

TEST(Idtd, RecoversIntendedExpressionFromFigure2) {
  // iDTD started on the Figure 2 automaton still derives the intended
  // ((b?(a+c))+d)+e.
  Alphabet alphabet;
  std::vector<Word> partial =
      WordsFromStrings({"bacacdacde", "cbacdbacde"}, &alphabet);
  Result<ReRef> learned = IdtdInfer(partial);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  ReRef paper = ParseChars("((b?(a|c))+d)+e", &alphabet);
  EXPECT_TRUE(LanguageEquivalent(paper, learned.value()))
      << ToString(learned.value(), alphabet);
}

TEST(Idtd, AgreesWithRewriteOnRepresentativeSamples) {
  // When rewrite alone succeeds, iDTD must return the same language (it
  // only repairs when stuck).
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    ReRef target = RandomSore(2 + rng.NextBelow(8), &rng);
    std::vector<Word> sample = RepresentativeSample(target);
    Result<ReRef> via_rewrite = RewriteInfer(sample);
    ASSERT_TRUE(via_rewrite.ok());
    Result<ReRef> via_idtd = IdtdInfer(sample);
    ASSERT_TRUE(via_idtd.ok());
    EXPECT_TRUE(LanguageEquivalent(via_rewrite.value(), via_idtd.value()));
  }
}

// Theorem 2: iDTD always produces a SORE r with L(A) ⊆ L(r), even on
// heavily subsampled (non-representative) SOAs.
class IdtdSupersetSweep : public ::testing::TestWithParam<int> {};

TEST_P(IdtdSupersetSweep, SupersetOnSubsampledData) {
  const int num_symbols = GetParam();
  Rng rng(777 + num_symbols);
  for (int trial = 0; trial < 15; ++trial) {
    ReRef target = RandomSore(num_symbols, &rng);
    std::vector<Word> full = RepresentativeSample(target);
    for (const Word& w : SampleWords(target, 10, &rng)) full.push_back(w);
    // Subsample aggressively so edges go missing.
    int k = 1 + static_cast<int>(rng.NextBelow(full.size()));
    std::vector<Word> sample = ReservoirSample(full, k, &rng);
    if (sample.empty()) continue;
    bool all_empty = true;
    for (const Word& w : sample) all_empty = all_empty && w.empty();
    if (all_empty) continue;

    Result<ReRef> learned = IdtdInfer(sample);
    ASSERT_TRUE(learned.ok()) << learned.status().ToString();
    EXPECT_TRUE(IsSore(learned.value()));
    // Every sample word must be accepted (L(G_W) ⊆ L(r)).
    Matcher matcher(learned.value());
    for (const Word& w : sample) {
      Alphabet names;
      for (int i = 0; i < num_symbols; ++i) {
        names.Intern(std::string(1, 'a' + i));
      }
      EXPECT_TRUE(matcher.Matches(w))
          << "learned " << ToString(learned.value(), names) << " rejects "
          << names.WordToString(w);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IdtdSupersetSweep,
                         ::testing::Values(2, 3, 5, 8, 12, 16));

TEST(Idtd, SoaLanguageSubsetOfResult) {
  // The stronger form of Theorem 2, checked exactly with the DFA
  // oracle: L(SOA) ⊆ L(iDTD(SOA)).
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    ReRef target = RandomSore(2 + rng.NextBelow(6), &rng);
    std::vector<Word> sample = SampleWords(target, 6, &rng);
    bool all_empty = true;
    for (const Word& w : sample) all_empty = all_empty && w.empty();
    if (all_empty) continue;
    Soa soa = Infer2T(sample);
    Result<ReRef> learned = IdtdFromSoa(soa);
    ASSERT_TRUE(learned.ok());
    int num_symbols = 0;
    for (Symbol s : SymbolsOf(learned.value())) {
      num_symbols = std::max(num_symbols, static_cast<int>(s) + 1);
    }
    Dfa soa_dfa = Dfa::FromNfa(soa.ToNfa(), num_symbols);
    Dfa re_dfa = CompileToDfa(learned.value(), num_symbols);
    EXPECT_TRUE(Dfa::IsSubset(soa_dfa, re_dfa));
  }
}

TEST(Idtd, FallbackTerminatesOnAdversarialAutomaton) {
  // A dense random SOA with no SORE structure: the unrestricted variant
  // (escalating k + full merge) must still terminate with a SORE.
  Rng rng(9);
  Soa soa;
  const int n = 10;
  for (Symbol s = 0; s < n; ++s) soa.AddState(s);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.31)) soa.AddEdge(i, j);
    }
  }
  soa.AddInitial(0);
  soa.AddFinal(n - 1);
  soa.AddEdge(0, n - 1);
  Result<ReRef> learned = IdtdFromSoa(soa);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  EXPECT_TRUE(IsSore(learned.value()));
}

TEST(Idtd, NoiseThresholdDropsLowSupportEdges) {
  // 200 clean words of (ab)+ plus one noisy word with an inverted pair;
  // with edge-support noise handling the clean SORE is recovered.
  Alphabet alphabet;
  std::vector<std::string> strings;
  for (int i = 0; i < 100; ++i) {
    strings.push_back("ab");
    strings.push_back("abab");
  }
  strings.push_back("ba");  // noise: starts with b, edge b->a start
  std::vector<Word> sample = WordsFromStrings(strings, &alphabet);

  IdtdOptions options;
  options.noise_edge_threshold = 5;
  Result<ReRef> learned = IdtdInfer(sample, options);
  ASSERT_TRUE(learned.ok());
  ReRef clean = ParseChars("(ab)+", &alphabet);
  EXPECT_TRUE(LanguageEquivalent(clean, learned.value()))
      << ToString(learned.value(), alphabet);
}

// Once a repair round leaves the GFA as it found it, every later round
// does too. On Table 2's example4 the first repair round already does,
// and on Table 1's refinfo at these seeds the third; the loop then takes
// the full-merge fallback at once instead of after 4n²+64 rounds (14 948
// and 388). The expressions are those of the budgeted loop.
TEST(Idtd, UnchangedRepairRoundTakesTheBudgetExitAtOnce) {
#ifdef CONDTD_NO_STATS
  GTEST_SKIP() << "observability compiled out (CONDTD_NO_STATS)";
#else
  auto expect_repairs = [](const ExperimentCase& c, int disjunctions,
                           const std::string& expected) {
    obs::EnableStats(true);
    obs::ResetStats();
    Result<ReRef> learned = IdtdFromSoa(Infer2T(c.sample));
    obs::StatsSnapshot stats = obs::SnapshotStats();
    obs::EnableStats(false);
    obs::ResetStats();
    ASSERT_TRUE(learned.ok()) << c.name << ": "
                              << learned.status().ToString();
    EXPECT_EQ(ToString(learned.value(), c.alphabet), expected) << c.name;
    auto count = [&](obs::Counter counter) {
      return stats.counters[static_cast<int>(counter)];
    };
    EXPECT_EQ(count(obs::Counter::kRepairDisjunctions), disjunctions)
        << c.name;
    EXPECT_EQ(count(obs::Counter::kRepairFallbacks), 1) << c.name;
  };

  std::string example4 = "(";
  for (int i = 5; i <= 61; ++i) {
    example4 += Numbered("a", i);
    example4 += " | ";
  }
  example4 += "a1? a2 a3? a4?)+";
  expect_repairs(BuildTable2Cases(20060912)[3], 1, example4);

  for (uint64_t seed : {8, 23, 32, 37}) {
    for (const ExperimentCase& c : BuildTable1Cases(seed)) {
      if (c.name != "refinfo") continue;
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_repairs(c, 3, "(a6 | a7 | a8 | a9 | a1 a2 (a3 | a4)? a5)*");
    }
  }
#endif
}

/// Algorithm 2's repair loop without the jump: every round up to the
/// 4n²+64 budget runs. `*budget_exits` counts the runs that reach it.
Result<ReRef> BudgetedIdtd(const Soa& soa, const IdtdOptions& options,
                           int* budget_exits) {
  Gfa gfa = Gfa::FromSoa(soa);
  RewriteFixpoint(&gfa);
  int k = options.initial_k;
  const int budget = 4 * soa.NumStates() * soa.NumStates() + 64;
  int steps = 0;
  while (!gfa.IsFinal()) {
    if (++steps > budget) {
      ++*budget_exits;
      if (!options.enable_full_merge_fallback) {
        return Status::NoEquivalentSore(
            "iDTD (restricted): repair budget exhausted before reaching a "
            "final form");
      }
      FullMergeFallback(&gfa);
      RewriteFixpoint(&gfa);
      break;
    }
    if (EnableDisjunction(&gfa, k) || EnableOptional(&gfa, k)) {
      RewriteFixpoint(&gfa);
      continue;
    }
    if (k < options.max_k) {
      ++k;
      continue;
    }
    if (!options.enable_full_merge_fallback) {
      return Status::NoEquivalentSore(
          "iDTD (restricted): no repair rule applies at k <= " +
          std::to_string(options.max_k));
    }
    FullMergeFallback(&gfa);
    RewriteFixpoint(&gfa);
    break;
  }
  return Normalize(gfa.FinalExpression());
}

/// The SOAs both the jump test and the golden test run on: subsampled
/// random SOREs, dense random SOAs, and Table 1/2 subsamples.
std::vector<Soa> RepairStressSoas() {
  std::vector<Soa> soas;
  Rng rng(20061016);
  // Subsampled random SOREs.
  for (int trial = 0; trial < 300; ++trial) {
    ReRef target = RandomSore(2 + static_cast<int>(rng.NextBelow(15)), &rng);
    std::vector<Word> full = RepresentativeSample(target);
    for (const Word& w : SampleWords(target, 10, &rng)) full.push_back(w);
    int size = 1 + static_cast<int>(rng.NextBelow(full.size()));
    soas.push_back(Infer2T(ReservoirSample(full, size, &rng)));
  }
  // Dense random SOAs without SORE structure.
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 3 + static_cast<int>(rng.NextBelow(8));
    Soa soa;
    for (Symbol s = 0; s < n; ++s) soa.AddState(s);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.31)) soa.AddEdge(i, j);
      }
    }
    soa.AddInitial(0);
    soa.AddFinal(n - 1);
    soa.AddEdge(0, n - 1);
    soas.push_back(std::move(soa));
  }
  // Table 1 and Table 2 subsamples.
  std::vector<ExperimentCase> cases = BuildTable1Cases(20061016);
  for (ExperimentCase& c : BuildTable2Cases(20061016)) {
    cases.push_back(std::move(c));
  }
  for (const ExperimentCase& c : cases) {
    for (int size : {2, 4, 8, 16}) {
      soas.push_back(Infer2T(ReservoirSample(c.sample, size, &rng)));
    }
  }
  return soas;
}

/// The paper implementation's iDTD variant: k = 2, no full merge.
IdtdOptions RestrictedOptions() {
  IdtdOptions restricted;
  restricted.initial_k = 2;
  restricted.max_k = 2;
  restricted.enable_full_merge_fallback = false;
  return restricted;
}

/// Names for the symbols of RepairStressSoas.
Alphabet StressNames() {
  Alphabet names;
  for (int s = 0; s < 256; ++s) names.Intern(Numbered("s", s));
  return names;
}

TEST(Idtd, JumpGivesTheBudgetedLoopsResult) {
  std::vector<Soa> soas = RepairStressSoas();
  IdtdOptions restricted = RestrictedOptions();
  Alphabet names = StressNames();
  int budget_exits = 0;
  int compared = 0;
  for (const Soa& soa : soas) {
    if (soa.NumStates() == 0) continue;
    for (const IdtdOptions& options : {IdtdOptions{}, restricted}) {
      Result<ReRef> fast = IdtdFromSoa(soa, options);
      Result<ReRef> budgeted = BudgetedIdtd(soa, options, &budget_exits);
      ++compared;
      ASSERT_EQ(fast.ok(), budgeted.ok())
          << "input " << compared << ": " << fast.status().ToString()
          << " vs " << budgeted.status().ToString();
      if (fast.ok()) {
        EXPECT_EQ(ToString(fast.value(), names),
                  ToString(budgeted.value(), names))
            << "input " << compared;
      } else {
        EXPECT_EQ(fast.status().ToString(), budgeted.status().ToString())
            << "input " << compared;
      }
    }
  }
  // Without inputs that spin to the budget the jump goes unexercised.
  EXPECT_GT(budget_exits, 10) << "of " << compared << " runs";
}

// iDTD under the default, restricted and edge-noise options, and plain
// rewrite, over RepairStressSoas: one line per run, compared with
// tests/data/idtd_rewrite_golden.txt. The file pins the learners' bytes
// across changes to the GFA and its rules. On a mismatch the actual text
// is written under the test's temporary directory.
TEST(Idtd, StressResultsMatchTheGoldenFile) {
  IdtdOptions noisy;
  noisy.noise_edge_threshold = 3;
  const std::vector<std::pair<std::string, IdtdOptions>> runs = {
      {"idtd", IdtdOptions{}}, {"restricted", RestrictedOptions()},
      {"noise3", noisy}};
  Alphabet names = StressNames();
  auto render = [&](const Result<ReRef>& result) {
    return result.ok() ? ToString(result.value(), names)
                       : result.status().ToString();
  };
  std::string actual;
  std::vector<Soa> soas = RepairStressSoas();
  for (size_t i = 0; i < soas.size(); ++i) {
    if (soas[i].NumStates() == 0) continue;
    const std::string prefix = std::to_string(i) + " ";
    for (const auto& [name, options] : runs) {
      actual += prefix + name + " " +
                render(IdtdFromSoa(soas[i], options)) + "\n";
    }
    actual += prefix + "rewrite " + render(RewriteSoaToSore(soas[i])) + "\n";
  }
  const std::string path =
      std::string(CONDTD_TEST_DATA_DIR) + "/idtd_rewrite_golden.txt";
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  if (actual == expected.value()) return;
  const std::string dump = ::testing::TempDir() + "/idtd_rewrite_golden.txt";
  ASSERT_TRUE(WriteStringToFile(dump, actual).ok());
  std::vector<std::string> want = SplitString(expected.value(), '\n');
  std::vector<std::string> got = SplitString(actual, '\n');
  size_t line = 0;
  while (line < want.size() && line < got.size() && want[line] == got[line]) {
    ++line;
  }
  FAIL() << "line " << line + 1 << " differs from " << path << "\n  want: "
         << (line < want.size() ? want[line] : "<end>")
         << "\n  got:  " << (line < got.size() ? got[line] : "<end>")
         << "\nactual text written to " << dump;
}

TEST(Idtd, EmptySoaFails) {
  Soa soa;
  EXPECT_EQ(IdtdFromSoa(soa).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Idtd, SingleStateSoa) {
  Alphabet alphabet;
  Result<ReRef> learned =
      IdtdInfer(WordsFromStrings({"a", "aa"}, &alphabet));
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(ToString(learned.value(), alphabet), "a+");
}

}  // namespace
}  // namespace condtd
