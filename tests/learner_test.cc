// The Learner/LearnerRegistry seam: registry contents, AutoPolicy,
// every registered learner end-to-end on the Table 1 mini-corpus, and
// the reservoir-backed failure modes of the word-hungry XTRACT baseline.

#include "learn/learner.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dtd/dtd_writer.h"
#include "gen/corpus.h"
#include "infer/inferrer.h"
#include "regex/matcher.h"
#include "regex/determinism.h"

namespace condtd {
namespace {

TEST(LearnerRegistry, BuiltinsRegisteredInDisplayOrder) {
  const LearnerRegistry& registry = LearnerRegistry::Global();
  EXPECT_EQ(registry.NamesForDisplay("|"),
            "auto|idtd|crx|isore|sire|rewrite|trang|xtract");
  for (const Learner* learner : registry.All()) {
    EXPECT_EQ(registry.Find(learner->name()), learner);
    EXPECT_FALSE(learner->description().empty());
  }
  EXPECT_EQ(registry.Find("no-such-learner"), nullptr);
  // Capability bits: the interleaving learners and the XTRACT baseline
  // need raw words; the summary-only learners must not ask for them.
  for (const Learner* learner : registry.All()) {
    bool wants_words = learner->name() == "xtract" ||
                       learner->name() == "isore" ||
                       learner->name() == "sire";
    EXPECT_EQ(learner->needs_full_words(), wants_words) << learner->name();
  }
}

TEST(LearnerRegistry, DuplicateRegistrationFails) {
  class Dup : public Learner {
   public:
    std::string_view name() const override { return "crx"; }
    std::string_view description() const override { return "dup"; }
    Result<ReRef> Learn(const ElementSummary&,
                        const LearnOptions&) const override {
      return Status::Internal("unreachable");
    }
  };
  Status status = LearnerRegistry::Global().Register(std::make_unique<Dup>());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("already registered"), std::string::npos);
}

TEST(AutoPolicy, SwitchesOnOccurrenceCount) {
  ElementSummary sparse;
  sparse.occurrences = 99;
  ElementSummary dense;
  dense.occurrences = 100;
  AutoPolicy policy(/*idtd_min_words=*/100);
  EXPECT_EQ(policy.Pick(sparse).name(), "crx");
  EXPECT_EQ(policy.Pick(dense).name(), "idtd");
}

TEST(DtdInferrer, UnknownLearnerNameFailsWithRegisteredList) {
  InferenceOptions options;
  options.learner = "bogus";
  // Element content, and corpora whose every element is #PCDATA or EMPTY
  // (no learner would run for them): all fail the same way.
  for (const char* xml : {"<r><a/><a/></r>", "<a>text</a>", "<a/>"}) {
    SCOPED_TRACE(xml);
    DtdInferrer inferrer(options);
    EXPECT_EQ(inferrer.learner(), nullptr);
    ASSERT_TRUE(inferrer.AddXml(xml).ok());
    // <a> is EMPTY or #PCDATA in every case.
    Symbol a = inferrer.alphabet()->Find("a");
    for (const Status& status :
         {inferrer.InferDtd().status(), inferrer.InferXsd().status(),
          inferrer.InferContentModel(a).status(),
          inferrer.InferElement(*inferrer.summaries().Find(a), true)
              .model.status()}) {
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find("bogus"), std::string::npos);
      EXPECT_NE(status.ToString().find(
                    "auto, idtd, crx, isore, sire, rewrite, trang, xtract"),
                std::string::npos);
    }
  }
}

// --- round trip: every learner over the Table 1 mini-corpus --------------

// Feeds a Table 1 case's words through DtdInferrer::AddWords and runs
// the learner end-to-end. Learners differ in generalization, so the
// check is semantic: the result must be a deterministic RE accepting
// every word it was trained on (rewrite and xtract are allowed to fail
// on specific cases — rewrite needs representative data, xtract needs
// the words to fit its budget — but must never crash or mis-learn).
void RoundTripCase(const ExperimentCase& experiment,
                   const std::string& learner_name) {
  InferenceOptions options;
  options.learner = learner_name;
  // Keep the reservoir within xtract's feasible range on the big cases.
  std::vector<Word> sample = experiment.sample;
  if (learner_name == "xtract" && experiment.xtract_sample_size > 0 &&
      static_cast<int>(sample.size()) > experiment.xtract_sample_size) {
    sample.resize(experiment.xtract_sample_size);
  }
  DtdInferrer inferrer(options);
  *inferrer.alphabet() = experiment.alphabet;
  Symbol element = inferrer.alphabet()->Intern("__case_root");
  inferrer.AddWords(element, sample);
  Result<ContentModel> model = inferrer.InferContentModel(element);
  if (!model.ok()) {
    EXPECT_TRUE(learner_name == "rewrite" || learner_name == "xtract")
        << experiment.name << " via " << learner_name << ": "
        << model.status().ToString();
    return;
  }
  ASSERT_EQ(model->kind, ContentKind::kChildren)
      << experiment.name << " via " << learner_name;
  EXPECT_TRUE(IsDeterministic(model->regex))
      << experiment.name << " via " << learner_name << ": "
      << ToDtdString(model->regex, *inferrer.alphabet());
  for (const Word& word : sample) {
    ASSERT_TRUE(Matches(model->regex, word))
        << experiment.name << " via " << learner_name
        << " rejects a training word: "
        << ToDtdString(model->regex, *inferrer.alphabet());
  }
}

TEST(LearnerRoundTrip, EveryLearnerOnTable1) {
  std::vector<ExperimentCase> cases = BuildTable1Cases(20060912);
  ASSERT_FALSE(cases.empty());
  for (const Learner* learner : LearnerRegistry::Global().All()) {
    for (const ExperimentCase& experiment : cases) {
      RoundTripCase(experiment, std::string(learner->name()));
    }
  }
}

// --- reservoir-backed failure modes --------------------------------------

// A corpus whose element has more distinct child sequences than
// xtract.max_strings: the reservoir overflows and the learner reports
// the baseline's documented infeasibility instead of learning from a
// truncated sample.
TEST(XtractLearner, OverflowingReservoirIsResourceExhausted) {
  InferenceOptions options;
  options.learner = "xtract";
  options.xtract.max_strings = 8;
  DtdInferrer inferrer(options);
  Symbol root = inferrer.alphabet()->Intern("root");
  Symbol a = inferrer.alphabet()->Intern("a");
  std::vector<Word> words;
  for (int n = 1; n <= 20; ++n) {
    words.emplace_back(Word(n, a));  // 20 distinct lengths
  }
  inferrer.AddWords(root, words);
  Result<ContentModel> model = inferrer.InferContentModel(root);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(model.status().ToString().find("8"), std::string::npos);
}

// Words within budget but above max_strings still fail — through
// XtractInfer's own check (the reservoir keeps max_strings + 2 words of
// headroom precisely so that path stays reachable).
TEST(XtractLearner, JustOverBudgetFailsThroughXtractItself) {
  InferenceOptions options;
  options.learner = "xtract";
  options.xtract.max_strings = 8;
  DtdInferrer inferrer(options);
  Symbol root = inferrer.alphabet()->Intern("root");
  Symbol a = inferrer.alphabet()->Intern("a");
  std::vector<Word> words;
  for (int n = 1; n <= 9; ++n) {
    words.emplace_back(Word(n, a));  // 9 distinct non-empty words
  }
  inferrer.AddWords(root, words);
  Result<ContentModel> model = inferrer.InferContentModel(root);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kResourceExhausted);
}

// A summary folded for a summary-only learner carries no reservoir;
// pointing xtract at it must fail loudly, not learn from nothing.
TEST(XtractLearner, SummaryWithoutWordsIsFailedPrecondition) {
  DtdInferrer folded;  // default options: reservoir disabled
  ASSERT_TRUE(folded.AddXml("<r><a/><a/></r>").ok());
  InferenceOptions options;
  options.learner = "xtract";
  DtdInferrer xtract_side(options);
  ASSERT_TRUE(xtract_side.LoadState(folded.SaveState()).ok());
  Result<Dtd> dtd = xtract_side.InferDtd();
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(dtd.status().code(), StatusCode::kFailedPrecondition);
}

// With the reservoir enabled end-to-end, xtract works across save/load
// and across shard merges.
TEST(XtractLearner, ReservoirSurvivesSaveLoadAndMerge) {
  InferenceOptions options;
  options.learner = "xtract";
  DtdInferrer a(options);
  ASSERT_TRUE(a.AddXml("<r><x/><y/></r>").ok());
  DtdInferrer b(options);
  ASSERT_TRUE(b.AddXml("<r><x/></r>").ok());
  a.MergeFrom(b);
  DtdInferrer restored(options);
  ASSERT_TRUE(restored.LoadState(a.SaveState()).ok());
  Result<Dtd> direct = a.InferDtd();
  Result<Dtd> roundtripped = restored.InferDtd();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(roundtripped.ok()) << roundtripped.status().ToString();
  EXPECT_EQ(WriteDtd(direct.value(), *a.alphabet()),
            WriteDtd(roundtripped.value(), *restored.alphabet()));
}

// Streaming ingestion collects the reservoir too (the weighted folds
// are multiplicity-invariant for the distinct-word set).
TEST(XtractLearner, StreamingIngestionFeedsTheReservoir) {
  InferenceOptions options;
  options.learner = "xtract";
  DtdInferrer inferrer(options);
  ASSERT_TRUE(inferrer.AddXml("<r><x/><y/></r>").ok());
  ASSERT_TRUE(inferrer.AddXml("<r><x/><y/></r>").ok());
  const ElementSummary* summary =
      inferrer.summaries().Find(inferrer.alphabet()->Find("r"));
  ASSERT_NE(summary, nullptr);
  EXPECT_TRUE(summary->words_complete);
  EXPECT_FALSE(summary->words_overflowed);
  EXPECT_EQ(summary->retained_words.size(), 1u);  // deduplicated
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
}

}  // namespace
}  // namespace condtd
