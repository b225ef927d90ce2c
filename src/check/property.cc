#include "check/property.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "gen/random_dtd.h"
#include "gen/random_regex.h"
#include "gen/regex_sampler.h"
#include "gen/representative.h"
#include "gen/xml_gen.h"
#include "learn/learner.h"
#include "xml/dom.h"

namespace condtd {

uint64_t InstanceSeed(uint64_t base, int instance) {
  if (instance == 0) return base;
  // splitmix64 of base + i, so instance streams are independent while
  // instance 0 reproduces a printed seed verbatim.
  uint64_t z = base + static_cast<uint64_t>(instance) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t SeedFromEnv(uint64_t fallback) {
  const char* env = std::getenv("CONDTD_PROPERTY_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  uint64_t value = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return fallback;
    value = value * 10 + static_cast<uint64_t>(*p - '0');
  }
  return value;
}

std::string ReproLine(const PropertyFailure& failure) {
  return "reproduce with: CONDTD_PROPERTY_SEED=" +
         std::to_string(failure.seed) + " (learner=" + failure.learner +
         ", oracle=" + failure.oracle + ")";
}

std::string FailureToString(const PropertyFailure& failure) {
  std::string out = "property failure: learner=" + failure.learner +
                    " instance=" + std::to_string(failure.instance) +
                    " oracle=" + failure.oracle + "\n  " + failure.detail +
                    "\n  target: " + failure.target + "\n  sample (" +
                    std::to_string(failure.sample.size()) + " words):";
  for (const std::string& word : failure.sample) {
    out += "\n    '" + word + "'";
  }
  out += "\n  " + ReproLine(failure);
  return out;
}

namespace {

/// One derived trial: a random SORE/CHARE target over a fresh alphabet
/// plus a sample of L(target). `covering` samples include the full
/// representative word set (Section 4), so 2T-INF recovers the target's
/// SOA exactly and the equivalence theorems apply; non-covering samples
/// drop part of it, exercising the repair/generalization paths.
struct TrialCase {
  Alphabet alphabet;
  ReRef target;
  std::vector<Word> sample;
  bool covering = false;
};

TrialCase MakeTrial(uint64_t seed, const PropertyOptions& options) {
  Rng rng(seed);
  TrialCase trial;
  int span = options.max_symbols - options.min_symbols + 1;
  int num_symbols =
      options.min_symbols +
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(span)));
  for (int i = 0; i < num_symbols; ++i) {
    trial.alphabet.Intern(std::string(1, static_cast<char>('a' + i)));
  }
  trial.target = rng.Bernoulli(0.25) ? RandomChare(num_symbols, &rng)
                                     : RandomSore(num_symbols, &rng);
  trial.covering = rng.Bernoulli(0.5);
  std::vector<Word> representative = RepresentativeSample(trial.target);
  if (trial.covering) {
    trial.sample = representative;
  } else {
    for (const Word& word : representative) {
      if (rng.Bernoulli(0.5)) trial.sample.push_back(word);
    }
  }
  std::vector<Word> extra =
      SampleWords(trial.target, options.extra_words, &rng);
  trial.sample.insert(trial.sample.end(), extra.begin(), extra.end());
  // Engine contract: learners only ever see elements with at least one
  // non-trivial child word. A representative sample of a target with
  // >= 1 symbol always contains one.
  bool has_nonempty = false;
  for (const Word& word : trial.sample) {
    if (!word.empty()) has_nonempty = true;
  }
  if (!has_nonempty) {
    for (const Word& word : representative) {
      if (!word.empty()) {
        trial.sample.push_back(word);
        break;
      }
    }
  }
  return trial;
}

/// Reservoir capacity used when the learner consumes full words. Larger
/// than any generated sample, so overflow never masks a property.
constexpr int kReservoirCapacity = 4096;

ElementSummary BuildSummary(const std::vector<Word>& sample,
                            bool with_reservoir) {
  SummaryLimits limits;
  limits.max_retained_words = with_reservoir ? kReservoirCapacity : 0;
  ElementSummary summary;
  summary.words_complete = with_reservoir;
  for (const Word& word : sample) {
    summary.AddChildWord(word, 1, limits);
    summary.occurrences += 1;
  }
  return summary;
}

/// Identifier-keyed dispatch over the sample-monotone oracles, shared by
/// the first check and the shrinker (which must re-establish the SAME
/// violation on every reduced sample).
OracleResult CheckShrinkable(const std::string& oracle, const ReRef& result,
                             const std::vector<Word>& sample,
                             const ElementSummary& summary,
                             const Alphabet& alphabet) {
  if (oracle == "sample-inclusion") {
    return CheckSampleInclusion(result, sample, alphabet);
  }
  if (oracle == "determinism") return CheckDeterminism(result, alphabet);
  if (oracle == "sore-validity") return CheckSoreValidity(result, alphabet);
  if (oracle == "chare-validity") {
    return CheckChareValidity(result, alphabet);
  }
  if (oracle == "sire-validity") return CheckSireValidity(result, alphabet);
  if (oracle == "soa-equivalence") {
    return CheckSoaEquivalence(result, summary.soa, alphabet);
  }
  return OracleResult::Pass();
}

/// Greedy word-removal shrinking: drop one sample word at a time as long
/// as the learner still succeeds and the same oracle still fails.
/// `budget` bounds learner re-runs. The engine contract (>= 1 non-empty
/// word) is preserved.
std::vector<Word> ShrinkSample(const Learner& learner,
                               const LearnOptions& learn_options,
                               const std::string& oracle,
                               std::vector<Word> sample,
                               const Alphabet& alphabet, int budget) {
  bool reservoir = learner.needs_full_words();
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (size_t i = 0; i < sample.size() && budget > 0; ++i) {
      std::vector<Word> reduced = sample;
      reduced.erase(reduced.begin() + static_cast<ptrdiff_t>(i));
      bool has_nonempty = false;
      for (const Word& word : reduced) {
        if (!word.empty()) has_nonempty = true;
      }
      if (!has_nonempty) continue;
      ElementSummary summary = BuildSummary(reduced, reservoir);
      --budget;
      Result<ReRef> result = learner.Learn(summary, learn_options);
      if (!result.ok()) continue;
      if (CheckShrinkable(oracle, result.value(), reduced, summary,
                          alphabet)
              .passed) {
        continue;
      }
      sample = std::move(reduced);
      changed = true;
      --i;
    }
  }
  return sample;
}

std::vector<std::string> RenderSample(const std::vector<Word>& sample,
                                      const Alphabet& alphabet) {
  std::vector<std::string> out;
  out.reserve(sample.size());
  for (const Word& word : sample) {
    out.push_back(alphabet.WordToString(word));
  }
  return out;
}

PropertyFailure MakeFailure(const std::string& learner, int instance,
                            uint64_t seed, std::string oracle,
                            std::string detail, const TrialCase& trial,
                            const std::vector<Word>& sample) {
  PropertyFailure failure;
  failure.learner = learner;
  failure.instance = instance;
  failure.seed = seed;
  failure.oracle = std::move(oracle);
  failure.detail = std::move(detail);
  failure.target =
      ToString(trial.target, trial.alphabet, PrintStyle::kParseable);
  failure.sample = RenderSample(sample, trial.alphabet);
  return failure;
}

/// Nests a text-bearing copy of a random text-bearing element inside
/// it, so that the element's text and its own child word fold while an
/// occurrence of the same name is still open. Random DTDs are acyclic
/// and keep text in leaves, so without this no element ever nests in
/// itself.
void NestSameNameText(XmlDocument* doc, Rng* rng) {
  std::vector<XmlElement*> with_text;
  std::vector<XmlElement*> pending = {doc->root.get()};
  while (!pending.empty()) {
    XmlElement* element = pending.back();
    pending.pop_back();
    if (element->HasSignificantText()) with_text.push_back(element);
    for (const auto& child : element->children()) {
      pending.push_back(child.get());
    }
  }
  if (with_text.empty()) return;
  XmlElement* outer = with_text[rng->NextBelow(with_text.size())];
  outer->AddChild(outer->name())
      ->AppendText("nested" + std::to_string(rng->NextBelow(1000)));
}

/// `doc`'s root with its children in reverse order and no end tag: a
/// document the fold rejects after completing every word below the
/// root, in another order than `doc` completes them.
std::string ReversedUnclosedRoot(const XmlDocument& doc) {
  std::string xml = "<" + doc.root->name() + ">";
  const auto& children = doc.root->children();
  for (auto child = children.rbegin(); child != children.rend(); ++child) {
    xml += (*child)->ToXml();
  }
  return xml;
}

}  // namespace

std::vector<PropertyFailure> RunLearnerProperty(
    std::string_view learner_name, const PropertyOptions& options) {
  std::vector<PropertyFailure> failures;
  const Learner* learner = LearnerRegistry::Global().Find(learner_name);
  std::string name(learner_name);
  if (learner == nullptr) {
    PropertyFailure failure;
    failure.learner = name;
    failure.oracle = "registry";
    failure.detail = "learner '" + name + "' is not registered";
    failures.push_back(std::move(failure));
    return failures;
  }
  LearnOptions learn_options;
  bool interleaving = name == "isore" || name == "sire";
  bool checks_determinism = name == "idtd" || name == "rewrite" ||
                            name == "crx" || name == "auto" || interleaving;
  bool checks_sore = name == "idtd" || name == "rewrite";
  bool checks_chare = name == "crx";
  bool checks_soa = name == "rewrite";
  bool checks_covering_equivalence = name == "idtd" || name == "rewrite";
  // Baseline the interleaving learners dominate (fall back to, on
  // ordered data): idtd for isore, crx for sire.
  const Learner* dominance_baseline =
      !interleaving ? nullptr
                    : LearnerRegistry::Global().Find(
                          name == "isore" ? "idtd" : "crx");

  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    TrialCase trial = MakeTrial(seed, options);
    ElementSummary summary =
        BuildSummary(trial.sample, learner->needs_full_words());
    Result<ReRef> result = learner->Learn(summary, learn_options);
    if (!result.ok()) {
      StatusCode code = result.status().code();
      bool acceptable =
          (name == "rewrite" && code == StatusCode::kNoEquivalentSore &&
           !trial.covering) ||
          (name == "xtract" && code == StatusCode::kResourceExhausted);
      if (!acceptable) {
        failures.push_back(MakeFailure(
            name, i, seed, "learner-error",
            (trial.covering ? "failed on a covering sample: "
                            : "failed: ") +
                result.status().ToString(),
            trial, trial.sample));
      }
      continue;
    }
    const ReRef& inferred = result.value();

    std::string violated;
    OracleResult check = CheckSampleInclusion(inferred, trial.sample,
                                              trial.alphabet);
    if (!check.passed) {
      violated = "sample-inclusion";
    } else if (checks_determinism &&
               !(check = CheckDeterminism(inferred, trial.alphabet))
                    .passed) {
      violated = "determinism";
    } else if (checks_sore &&
               !(check = CheckSoreValidity(inferred, trial.alphabet))
                    .passed) {
      violated = "sore-validity";
    } else if (checks_chare &&
               !(check = CheckChareValidity(inferred, trial.alphabet))
                    .passed) {
      violated = "chare-validity";
    } else if (checks_soa &&
               !(check = CheckSoaEquivalence(inferred, summary.soa,
                                             trial.alphabet))
                    .passed) {
      violated = "soa-equivalence";
    } else if (interleaving &&
               !(check = CheckSireValidity(inferred, trial.alphabet))
                    .passed) {
      violated = "sire-validity";
    }
    if (!violated.empty()) {
      std::vector<Word> shrunk =
          ShrinkSample(*learner, learn_options, violated, trial.sample,
                       trial.alphabet, options.shrink_budget);
      failures.push_back(MakeFailure(name, i, seed, violated, check.detail,
                                     trial, shrunk));
      continue;
    }

    // Covering samples pin the SOA to the target's (Section 4), so the
    // equivalence theorems apply; removing words breaks the
    // precondition, so these failures are reported unshrunk.
    if (trial.covering && checks_covering_equivalence) {
      check =
          CheckLanguageEquivalence(inferred, trial.target, trial.alphabet);
      if (!check.passed) {
        failures.push_back(MakeFailure(name, i, seed,
                                       "covering-equivalence", check.detail,
                                       trial, trial.sample));
        continue;
      }
    }

    // Conciseness dominance vs the baseline inferred from the SAME
    // summary. The baseline depends on the sample, so shrinking would
    // change the property being checked — reported unshrunk.
    if (dominance_baseline != nullptr) {
      Result<ReRef> baseline =
          dominance_baseline->Learn(summary, learn_options);
      if (baseline.ok()) {
        check = CheckConcisenessDominance(inferred, baseline.value(),
                                          trial.alphabet);
        if (!check.passed) {
          failures.push_back(MakeFailure(name, i, seed,
                                         "conciseness-dominance",
                                         check.detail, trial, trial.sample));
        }
      }
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunInterleavingProperty(
    const PropertyOptions& options) {
  std::vector<PropertyFailure> failures;
  const LearnerRegistry& registry = LearnerRegistry::Global();
  const Learner* learners[] = {registry.Find("isore"), registry.Find("sire")};
  LearnOptions learn_options;

  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    Rng rng(seed);
    TrialCase trial;
    int num_symbols = 4 + static_cast<int>(rng.NextBelow(5));  // 4..8
    for (int s = 0; s < num_symbols; ++s) {
      trial.alphabet.Intern(std::string(1, static_cast<char>('a' + s)));
    }

    // Random SIRE target: split the alphabet into 2–3 contiguous runs
    // and put an independent random SORE over each run under one `&`.
    int num_factors = 2 + static_cast<int>(rng.NextBelow(2));  // 2..3
    std::vector<int> sizes(static_cast<size_t>(num_factors), 1);
    for (int extra = num_symbols - num_factors; extra > 0; --extra) {
      sizes[rng.NextBelow(static_cast<uint64_t>(num_factors))] += 1;
    }
    std::vector<ReRef> factors;
    int offset = 0;
    for (int size : sizes) {
      ReRef local = RandomSore(size, &rng);
      std::map<Symbol, Symbol> shift;
      for (Symbol s = 0; s < size; ++s) shift[s] = s + offset;
      factors.push_back(RemapSymbols(local, shift));
      offset += size;
    }
    trial.target = Re::Shuffle(std::move(factors));
    trial.covering = true;
    trial.sample = RepresentativeSample(trial.target);
    std::vector<Word> extra =
        SampleWords(trial.target, options.extra_words, &rng);
    trial.sample.insert(trial.sample.end(), extra.begin(), extra.end());

    for (const Learner* learner : learners) {
      if (learner == nullptr) {
        PropertyFailure failure;
        failure.learner = "interleaving";
        failure.oracle = "registry";
        failure.detail = "isore/sire learner is not registered";
        failures.push_back(std::move(failure));
        continue;
      }
      std::string name(learner->name());
      ElementSummary summary =
          BuildSummary(trial.sample, /*with_reservoir=*/true);
      Result<ReRef> result = learner->Learn(summary, learn_options);
      if (!result.ok()) {
        failures.push_back(MakeFailure(name, i, seed, "learner-error",
                                       "failed on an interleaving target: " +
                                           result.status().ToString(),
                                       trial, trial.sample));
        continue;
      }
      const ReRef& inferred = result.value();

      std::string violated;
      OracleResult check =
          CheckSampleInclusion(inferred, trial.sample, trial.alphabet);
      if (!check.passed) {
        violated = "sample-inclusion";
      } else if (!(check = CheckDeterminism(inferred, trial.alphabet))
                      .passed) {
        violated = "determinism";
      } else if (!(check = CheckSireValidity(inferred, trial.alphabet))
                      .passed) {
        violated = "sire-validity";
      }
      if (!violated.empty()) {
        std::vector<Word> shrunk =
            ShrinkSample(*learner, learn_options, violated, trial.sample,
                         trial.alphabet, options.shrink_budget);
        failures.push_back(MakeFailure(name, i, seed, violated, check.detail,
                                       trial, shrunk));
        continue;
      }

      const Learner* baseline_learner =
          registry.Find(name == "isore" ? "idtd" : "crx");
      Result<ReRef> baseline =
          baseline_learner->Learn(summary, learn_options);
      if (baseline.ok()) {
        check = CheckConcisenessDominance(inferred, baseline.value(),
                                          trial.alphabet);
        if (!check.passed) {
          failures.push_back(MakeFailure(name, i, seed,
                                         "conciseness-dominance",
                                         check.detail, trial, trial.sample));
        }
      }
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunMergeLawProperty(
    const PropertyOptions& options) {
  std::vector<PropertyFailure> failures;
  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    TrialCase trial = MakeTrial(seed, options);
    Rng rng(seed ^ 0xA5A5A5A5A5A5A5A5ull);
    Symbol element = trial.alphabet.Intern("elem");
    int num_shards = 2 + static_cast<int>(rng.NextBelow(3));
    std::vector<std::vector<Word>> shards(
        static_cast<size_t>(num_shards));
    for (const Word& word : trial.sample) {
      shards[rng.NextBelow(static_cast<uint64_t>(num_shards))].push_back(
          word);
    }
    SummaryLimits limits;
    // Alternate reservoir-off / small-reservoir (exercises the overflow
    // flag's merge-order invariance).
    limits.max_retained_words = rng.Bernoulli(0.5) ? 0 : 8;
    OracleResult check =
        CheckMergeLaws(shards, element, trial.alphabet, limits);
    if (!check.passed) {
      failures.push_back(MakeFailure("merge-laws", i, seed, "merge-laws",
                                     check.detail, trial, trial.sample));
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunIngestionProperty(
    const PropertyOptions& options) {
  std::vector<PropertyFailure> failures;
  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    Rng rng(seed);
    Alphabet alphabet;
    RandomDtdOptions dtd_options;
    dtd_options.num_elements =
        3 + static_cast<int>(rng.NextBelow(5));
    Dtd dtd = RandomDtd(&alphabet, &rng, dtd_options);
    int num_docs = 3 + static_cast<int>(rng.NextBelow(6));
    std::vector<std::string> documents;
    std::vector<std::string> broken;
    for (int d = 0; d < num_docs; ++d) {
      Result<XmlDocument> doc = GenerateDocument(dtd, alphabet, &rng);
      if (!doc.ok()) break;
      if (rng.Bernoulli(0.5)) NestSameNameText(&doc.value(), &rng);
      std::string xml = doc->ToXml();
      // Truncate a copy of THIS document mid-way and leave a dangling
      // '<': rejected in strict and lenient mode alike, and every word
      // the truncation completes was just completed by the clean
      // document, so the rollback must restore the exact cache state
      // (see CheckIngestionEquivalence on why alignment matters).
      broken.push_back(rng.Bernoulli(0.5)
                           ? xml.substr(0, xml.size() / 2) + "<"
                           : std::string());
      documents.push_back(std::move(xml));
    }
    if (static_cast<int>(documents.size()) != num_docs) {
      PropertyFailure failure;
      failure.learner = "ingestion";
      failure.instance = i;
      failure.seed = seed;
      failure.oracle = "generation";
      failure.detail = "document generation failed for the random DTD";
      failures.push_back(std::move(failure));
      continue;
    }
    InferenceOptions inference;
    int jobs = 2 + static_cast<int>(rng.NextBelow(3));
    OracleResult check =
        CheckIngestionEquivalence(documents, broken, inference, jobs);
    if (!check.passed) {
      PropertyFailure failure;
      failure.learner = "ingestion";
      failure.instance = i;
      failure.seed = seed;
      failure.oracle = "ingestion-equivalence";
      failure.detail = check.detail;
      failure.sample = documents;
      failures.push_back(std::move(failure));
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunDatatypeProperty(
    const PropertyOptions& options) {
  // Early values of one type, then late values that break it (none for
  // the families whose type holds).
  struct Family {
    std::vector<std::string> early;
    std::vector<std::string> late;
  };
  static const std::vector<Family> kFamilies = {
      {{"1", "0"}, {"2"}},                             // boolean → integer
      {{"3", "-12", "+7"}, {"3.5"}},                   // integer → decimal
      {{"2024-02-29", "1999-12-31"}, {"2023-02-29"}},  // date → string
      {{"42", "7"}, {"word7"}},                        // digits → string
      {{"true", "false", "1"}, {"yes"}},               // boolean → string
      {{"1.5", ".5", "-2."}, {"."}},                   // decimal → string
      {{"10", "11"}, {}},
      {{"2006-09-12"}, {}},
      {{"0", "true"}, {}},
  };
  static const char* const kSpace[] = {"", " ", "\n  ", "\t"};
  std::vector<PropertyFailure> failures;
  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    Rng rng(seed);
    const int num_elements = 1 + static_cast<int>(rng.NextBelow(4));
    std::vector<const Family*> families;
    for (int e = 0; e < num_elements; ++e) {
      families.push_back(&kFamilies[rng.NextBelow(kFamilies.size())]);
    }
    // Up to 90 documents, so early values can outnumber any fixed
    // sample of them; the last 1-3 carry the breaking values.
    const int num_docs = 2 + static_cast<int>(rng.NextBelow(89));
    const int late_from =
        num_docs - 1 - static_cast<int>(rng.NextBelow(3));
    auto pick = [&](const std::vector<std::string>& from) {
      return from[rng.NextBelow(from.size())];
    };
    auto text_element = [&](const std::string& name,
                            const std::string& value) {
      return "<" + name + ">" + kSpace[rng.NextBelow(4)] + value +
             kSpace[rng.NextBelow(4)] + "</" + name + ">";
    };
    std::vector<std::string> documents;
    std::vector<std::string> rejected;
    for (int d = 0; d < num_docs; ++d) {
      const bool late = d >= late_from;
      std::string xml = "<r>";
      for (int e = 0; e < num_elements; ++e) {
        const std::string name = "v" + std::to_string(e);
        const Family& family = *families[e];
        for (int k = static_cast<int>(rng.NextBelow(3)); k > 0; --k) {
          if (rng.Bernoulli(0.15)) {
            xml += "<" + name + "/>";  // an occurrence without text
          } else {
            xml += text_element(name, late && !family.late.empty()
                                          ? pick(family.late)
                                          : pick(family.early));
          }
        }
      }
      if (rng.Bernoulli(0.3)) {
        // Mixed content: its text runs join around the child.
        xml += "<m>" + std::to_string(d) + "<b/>" +
               (late ? "x" : std::to_string(rng.NextBelow(10))) + "</m>";
      }
      xml += "</r>";
      documents.push_back(std::move(xml));
      // A document that breaks every type, then a dangling '<': rejected
      // in strict and lenient mode alike.
      rejected.push_back(
          rng.Bernoulli(0.2)
              ? "<r>" + text_element("v0", "rejected") + "<m>y<b/></m><"
              : std::string());
    }
    OracleResult check = CheckDatatypes(documents, rejected, {});
    if (!check.passed) {
      PropertyFailure failure;
      failure.learner = "datatypes";
      failure.instance = i;
      failure.seed = seed;
      failure.oracle = "datatypes";
      failure.detail = check.detail;
      failure.sample = documents;
      failures.push_back(std::move(failure));
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunIncrementalQueryProperty(
    const PropertyOptions& options) {
  static const char* const kLearners[] = {"", "auto", "crx", "idtd",
                                          "xtract"};
  std::vector<PropertyFailure> failures;
  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    Rng rng(seed);
    Alphabet alphabet;
    RandomDtdOptions dtd_options;
    dtd_options.num_elements = 3 + static_cast<int>(rng.NextBelow(5));
    Dtd dtd = RandomDtd(&alphabet, &rng, dtd_options);
    std::vector<std::string> documents, reversed;
    int num_docs = 4 + static_cast<int>(rng.NextBelow(8));
    for (int d = 0; d < num_docs; ++d) {
      Result<XmlDocument> doc = GenerateDocument(dtd, alphabet, &rng);
      if (!doc.ok()) break;
      if (rng.Bernoulli(0.5)) NestSameNameText(&doc.value(), &rng);
      documents.push_back(doc->ToXml());
      reversed.push_back(ReversedUnclosedRoot(*doc));
    }
    auto query = [&] {
      QueryTraceStep step;
      step.kind = QueryTraceStep::Kind::kQuery;
      step.learner = kLearners[rng.NextBelow(5)];
      step.xsd = rng.Bernoulli(0.5);
      return step;
    };
    std::vector<QueryTraceStep> steps;
    if (rng.Bernoulli(0.2)) steps.push_back(query());  // empty corpus
    size_t reopen_at = rng.NextBelow(documents.size() + 1);
    for (size_t d = 0; d <= documents.size(); ++d) {
      if (d == reopen_at) {
        QueryTraceStep reopen;
        reopen.kind = QueryTraceStep::Kind::kReopen;
        steps.push_back(reopen);
        steps.push_back(query());
      }
      if (d == documents.size()) break;
      QueryTraceStep ingest;
      if (rng.Bernoulli(0.3)) {
        // This document's words, rejected in another order just before.
        ingest.document = reversed[d];
        steps.push_back(ingest);
      }
      ingest.document = documents[d];
      steps.push_back(ingest);
      if (rng.Bernoulli(0.35)) {
        const std::string& source =
            documents[rng.NextBelow(documents.size())];
        ingest.document = source.substr(0, source.size() / 2) + "<";
        steps.push_back(ingest);
      }
      if (rng.Bernoulli(0.5)) steps.push_back(query());
      if (rng.Bernoulli(0.2)) steps.push_back(query());
    }
    steps.push_back(query());
    steps.push_back(query());

    InferenceOptions inference;
    inference.learner = rng.Bernoulli(0.25) ? "xtract" : "auto";
    std::error_code error;
    std::filesystem::path dir = std::filesystem::temp_directory_path(error) /
                                ("condtd_incremental_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(seed));
    std::filesystem::remove_all(dir, error);
    OracleResult check = CheckIncrementalQuery(steps, inference, dir.string());
    std::filesystem::remove_all(dir, error);
    if (!check.passed) {
      PropertyFailure failure;
      failure.learner = "incremental-query";
      failure.instance = i;
      failure.seed = seed;
      failure.oracle = "incremental-query";
      failure.detail = check.detail;
      failure.sample = documents;
      failures.push_back(std::move(failure));
    }
  }
  return failures;
}

std::vector<PropertyFailure> RunRoundTripProperty(
    const PropertyOptions& options) {
  std::vector<PropertyFailure> failures;
  for (int i = 0; i < options.instances; ++i) {
    uint64_t seed = InstanceSeed(options.seed, i);
    Rng rng(seed);
    Alphabet alphabet;
    RandomDtdOptions dtd_options;
    dtd_options.num_elements =
        3 + static_cast<int>(rng.NextBelow(6));
    Dtd dtd = RandomDtd(&alphabet, &rng, dtd_options);
    // Sprinkle attribute lists over the elements so <!ATTLIST> round
    // trips are exercised too.
    for (const auto& [symbol, model] : dtd.elements) {
      if (!rng.Bernoulli(0.3)) continue;
      Dtd::AttributeDef def;
      def.name = "id";
      switch (rng.NextBelow(3)) {
        case 0:
          def.type = "CDATA";
          def.default_decl = "#IMPLIED";
          break;
        case 1:
          def.type = "ID";
          def.default_decl = "#REQUIRED";
          break;
        default:
          def.type = "(on|off)";
          def.default_decl = "\"off\"";
          break;
      }
      dtd.attributes[symbol].push_back(std::move(def));
    }
    OracleResult check = CheckDtdRoundTrip(dtd, alphabet);
    if (!check.passed) {
      PropertyFailure failure;
      failure.learner = "round-trip";
      failure.instance = i;
      failure.seed = seed;
      failure.oracle = "dtd-round-trip";
      failure.detail = check.detail;
      failures.push_back(std::move(failure));
    }
  }
  return failures;
}

}  // namespace condtd
