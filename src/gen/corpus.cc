#include "gen/corpus.h"

#include <cassert>

#include "base/strings.h"
#include "gen/regex_sampler.h"
#include "gen/representative.h"
#include "regex/parser.h"

namespace condtd {

namespace {

/// Builds "(a<first> | ... | a<last>)" for the big unions of Table 2.
std::string UnionRange(int first, int last) {
  std::string out = "(";
  for (int i = first; i <= last; ++i) {
    if (i > first) out += " | ";
    out += Numbered("a", i);
  }
  out += ")";
  return out;
}

ReRef MustParse(const std::string& text, Alphabet* alphabet) {
  Result<ReRef> re = ParseRegex(text, alphabet);
  assert(re.ok() && "corpus definition must parse");
  return re.value();
}

ExperimentCase MakeCase(std::string name, const std::string& original,
                        const std::string& observed, int sample_size,
                        int xtract_sample_size, uint64_t seed) {
  ExperimentCase c;
  c.name = std::move(name);
  // Intern a1..a64 first so symbol ids follow the natural index order in
  // every case regardless of the order names appear in the expressions.
  for (int i = 1; i <= 64; ++i) c.alphabet.Intern(Numbered("a", i));
  c.original = MustParse(original, &c.alphabet);
  c.observed = MustParse(observed, &c.alphabet);
  c.sample_size = sample_size;
  c.xtract_sample_size = xtract_sample_size;
  c.sample = GeneratedCorpus(c.observed, sample_size, seed);
  return c;
}

}  // namespace

std::vector<ExperimentCase> BuildTable1Cases(uint64_t seed) {
  std::vector<ExperimentCase> cases;

  // ProteinEntry: a4 occurs in every entry of the corpus (a4+ observed).
  cases.push_back(MakeCase(
      "ProteinEntry",
      "a1 a2 a3 a4* a5* a6* a7* a8* a9? a10? a11* a12 a13",
      "a1 a2 a3 a4+ a5* a6* a7* a8* a9? a10? a11* a12 a13", 2458, 843,
      seed + 1));
  cases.back().paper_crx = "a1a2a3a4+a5*a6*a7*a8*a9?a10?a11*a12a13";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "an expression of 185 tokens";

  cases.push_back(MakeCase("organism", "a1 a2? a3 a4? a5*",
                           "a1 a2? a3 a4? a5*", 9, 9, seed + 2));
  cases.back().paper_crx = "a1a2?a3a4?a5*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "a1((a2a3a4?+a3a4)a5?+a3a5*)";

  cases.push_back(MakeCase("reference", "a1 a2* a3* a4*", "a1 a2* a3* a4*",
                           45, 45, seed + 3));
  cases.back().paper_crx = "a1a2*a3*a4*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "a1(a2*(a4*+a3*)+a2a3*a4a4+a3*a4*)";

  // refinfo: in the corpus volume (a3) and month (a4) never co-occur and
  // pages (a8, i.e. xrefs in the paper's numbering a8/a9) — per the
  // paper: a3/a4 mutually exclusive, a8 never followed by a9.
  cases.push_back(MakeCase(
      "refinfo", "a1 a2 a3? a4? a5 a6? (a7 | a8)? a9?",
      "a1 a2 (a3 | a4)? a5 a6? ((a7? a9?) | a8)?", 10, 10, seed + 4));
  cases.back().paper_crx = "a1a2(a3+a4)?a5a6?a7?a9?a8?";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract =
      "a1a2((a3a5a6a7?+a4a5)a9?+a5(a7+a8)?+a4a5a8)";

  // authors: the corpus never contains a lone a2 (editor without name).
  cases.push_back(MakeCase("authors", "a1+ | (a2 a3?)", "a1+ | (a2 a3)", 54,
                           54, seed + 5));
  cases.back().paper_crx = "a1*a2?a3?";
  cases.back().paper_idtd = "a1+ + (a2a3)";
  cases.back().paper_xtract = "a1* + a2a3";

  cases.push_back(MakeCase("accinfo", "a1 a2* a3* a4? a5? a6? a7*",
                           "a1 a2* a3+ a4? a5? a6? a7*", 124, 124, seed + 6));
  cases.back().paper_crx = "a1a2*a3+a4?a5?a6?a7*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "an expression of 97 tokens";

  // genetics: no a11 occurs in the sample.
  cases.push_back(MakeCase(
      "genetics", "a1* a2? a3? a4? a5? a6? a7? a8? a9? a10? a11* a12*",
      "a1* a2? a3? a4? a5? a6? a7? a8? a9? a10? a12*", 219, 219, seed + 7));
  cases.back().paper_crx = "a1*a2?a3?a4?a5?a6?a7?a8?a9?a10?a12*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "an expression of 329 tokens";

  cases.push_back(MakeCase("function", "a1? a2* a3*", "a1? a2* a3*", 26, 26,
                           seed + 8));
  cases.back().paper_crx = "a1?a2*a3*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract =
      "(a1(a2?a2?a3*+a2*(a3a3)*+a2a2a2a3)+a2(a2a3*+a3*))";

  cases.push_back(
      MakeCase("city", "a1 a2* a3*", "a1 a2* a3*", 9, 9, seed + 9));
  cases.back().paper_crx = "a1a2*a3*";
  cases.back().paper_idtd = cases.back().paper_crx;
  cases.back().paper_xtract = "a1(a2*a3a3?+a2(a3*+a2))?";

  return cases;
}

std::vector<ExperimentCase> BuildTable2Cases(uint64_t seed) {
  std::vector<ExperimentCase> cases;

  cases.push_back(MakeCase("example1", "a1+ | (a2? a3+)", "a1+ | (a2? a3+)",
                           48, 48, seed + 11));
  cases.back().paper_crx = "a1*a2?a3*";
  cases.back().paper_idtd = "a1+ + (a2?a3+)";
  cases.back().paper_xtract = "a1* + (a2?a3*)";

  {
    std::string re = "(a1 a2? a3?)? a4? " + UnionRange(5, 18) + "*";
    cases.push_back(MakeCase("example2", re, re, 2210, 300, seed + 12));
    cases.back().paper_crx = "a1?a2?a3?a4?(a5+...+a18)*";
    cases.back().paper_idtd = "(a1a2?a3?)?a4?(a5+...+a18)*";
    cases.back().paper_xtract = "an expression of 252 tokens";
  }
  {
    std::string re = "a1? (a2 a3?)? " + UnionRange(4, 44) + "* a45+";
    cases.push_back(MakeCase("example3", re, re, 5741, 400, seed + 13));
    cases.back().paper_crx = "a1?a2?a3?(a4+...+a44)*a45+";
    cases.back().paper_idtd = "a1?(a2a3?)?(a4+...+a44)*a45+";
    cases.back().paper_xtract = "an expression of 142 tokens";
  }
  {
    std::string re =
        "a1? a2 a3? a4? (a5+ | (" + UnionRange(6, 61) + "+ a5*))";
    cases.push_back(MakeCase("example4", re, re, 10000, 500, seed + 14));
    cases.back().paper_crx = "a1?a2a3?a4?(a6+...+a61)*a5*";
    cases.back().paper_idtd = "a1?a2a3?a4?(a6+...+a61)*a5*";
    cases.back().paper_xtract = "an expression of 185 tokens";
  }
  {
    std::string re = "a1 (a2 | a3)* (a4 (a2 | a3 | a5)*)*";
    cases.push_back(MakeCase("example5", re, re, 1281, 500, seed + 15));
    cases.back().paper_crx = "a1(a2+a3+a4+a5)*";
    cases.back().paper_idtd = "a1((a2+a3+a4)+a5*)*";
    cases.back().paper_xtract = "an expression of 85 tokens";
  }
  return cases;
}

ExperimentCase BuildDaggerCase(int sample_size, uint64_t seed) {
  std::string re = "(a1 " + UnionRange(2, 12) + "+ (a13 | a14))+";
  ExperimentCase c = MakeCase("dagger", re, re, sample_size, sample_size,
                              seed + 21);
  c.paper_crx = "(super-approximation; CHARE cannot express (‡))";
  c.paper_idtd = "(a1(a2+...+a12)+(a13+a14))+";
  return c;
}

ExperimentCase BuildNoisyParagraphCase(int num_words, int num_noisy_words,
                                       uint64_t seed) {
  ExperimentCase c;
  c.name = "xhtml_paragraph";
  std::string re = "(";
  for (int i = 1; i <= 41; ++i) {
    if (i > 1) re += " | ";
    re += Numbered("a", i);
  }
  re += ")*";
  for (int i = 1; i <= 41; ++i) c.alphabet.Intern(Numbered("a", i));
  c.original = MustParse(re, &c.alphabet);
  c.observed = c.original;
  c.sample_size = num_words;
  c.xtract_sample_size = 0;

  Rng rng(seed);
  SampleOptions options;
  options.repeat_continue_p = 0.75;
  options.max_repeat = 20;
  c.sample = RepresentativeSample(c.observed);
  while (static_cast<int>(c.sample.size()) < num_words) {
    c.sample.push_back(SampleWord(c.observed, &rng, options));
  }
  // Inject intruders: Section 9 reports "a dozen of disallowed elements
  // (like table, h1, h2, ...) albeit in small numbers: on average in
  // around 10 strings" — twelve intruder element names, each occurring
  // in `num_noisy_words` words.
  const char* intruders[] = {"table",  "iframe",   "object", "script",
                             "form",   "input",    "select", "button",
                             "label",  "fieldset", "legend", "noscript"};
  for (const char* name : intruders) {
    Symbol intruder = c.alphabet.Intern(name);
    for (int i = 0; i < num_noisy_words && !c.sample.empty(); ++i) {
      Word& victim = c.sample[rng.NextBelow(c.sample.size())];
      victim.insert(victim.begin() + rng.NextBelow(victim.size() + 1),
                    intruder);
    }
  }
  rng.Shuffle(&c.sample);
  return c;
}

ExperimentCase BuildRepeatedDisjunctionCase(int n, int sample_size,
                                            uint64_t seed) {
  std::string re = "(";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) re += " | ";
    re += Numbered("a", i);
  }
  re += ")*";
  ExperimentCase c;
  c.name = "union" + std::to_string(n) + "_star";
  for (int i = 1; i <= n; ++i) c.alphabet.Intern(Numbered("a", i));
  c.original = MustParse(re, &c.alphabet);
  c.observed = c.original;
  c.sample_size = sample_size;
  c.sample = GeneratedCorpus(c.observed, sample_size, seed);
  return c;
}

}  // namespace condtd
