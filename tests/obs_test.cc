// Tests for the observability layer (src/obs/): the determinism
// contract (Counter values byte-identical at any shard count), the
// schema-stable JSON report, the disabled-path guarantee, and the
// inference output being independent of whether stats are collected.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/session.h"
#include "infer/streaming.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "xml/parser.h"

namespace condtd {
namespace {

// Collection tests are meaningless when the layer is compiled out; the
// disabled-path and output-invariance tests below still run.
#ifdef CONDTD_NO_STATS
#define SKIP_WITHOUT_STATS() \
  GTEST_SKIP() << "observability compiled out (CONDTD_NO_STATS)"
#else
#define SKIP_WITHOUT_STATS() (void)0
#endif

/// Enables and zeroes the registry for one test, restoring the default
/// (disabled, zeroed) state on exit so tests cannot leak counts into
/// each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableStats(true);
    obs::ResetStats();
  }
  void TearDown() override {
    obs::EnableStats(false);
    obs::ResetStats();
  }
};

std::vector<std::string> GenerateCorpus(int count, uint64_t seed) {
  Alphabet alphabet;
  Result<Dtd> truth = ParseDtd(
      "<!ELEMENT feed (entry+)>\n"
      "<!ELEMENT entry (title, updated?, (link | content)*, author)>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT updated (#PCDATA)>\n"
      "<!ELEMENT link EMPTY>\n"
      "<!ELEMENT content (#PCDATA)>\n"
      "<!ELEMENT author (name, email?)>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!ELEMENT email (#PCDATA)>\n",
      &alphabet);
  EXPECT_TRUE(truth.ok());
  Rng rng(seed);
  std::vector<std::string> documents;
  documents.reserve(count);
  for (int i = 0; i < count; ++i) {
    Result<XmlDocument> doc = GenerateDocument(truth.value(), alphabet, &rng);
    EXPECT_TRUE(doc.ok());
    documents.push_back(doc->ToXml());
  }
  return documents;
}

/// Runs the full batch pipeline (ingest + infer + DTD emit) and
/// returns the DTD text; the caller reads the registry afterwards.
std::string RunPipeline(const std::vector<std::string>& documents,
                        int num_threads) {
  IngestEngine::Options options;
  options.jobs = num_threads;
  IngestEngine engine(options);
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_TRUE(status.ok()) << status.ToString();
  Result<Dtd> dtd = engine.inferrer().InferDtd(engine.infer_threads());
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *engine.inferrer().alphabet());
}

/// Extracts the text of `"key": {...}` (with its nested braces) from a
/// rendered JSON report — for byte-comparing the deterministic subtrees
/// across runs. No string value in the report contains a brace, so
/// plain brace counting is exact.
std::string JsonSection(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\": {";
  size_t start = json.find(needle);
  EXPECT_NE(start, std::string::npos) << "missing section " << key;
  if (start == std::string::npos) return "";
  size_t i = start + needle.size() - 1;
  int depth = 0;
  for (; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) break;
  }
  return json.substr(start, i + 1 - start);
}

TEST_F(ObsTest, DeterministicCountersAreByteIdenticalAcrossJobs) {
  SKIP_WITHOUT_STATS();
  std::vector<std::string> documents = GenerateCorpus(120, 20060912);

  std::string base_dtd;
  std::string base_counters;
  std::string base_learners;
  for (int jobs : {1, 2, 7}) {
    obs::ResetStats();
    std::string dtd = RunPipeline(documents, jobs);
    std::string json = obs::RenderStatsJson(obs::SnapshotStats());
    std::string counters = JsonSection(json, "counters");
    std::string learners = JsonSection(json, "learners");
    if (jobs == 1) {
      base_dtd = dtd;
      base_counters = counters;
      base_learners = learners;
      // The corpus actually exercised the pipeline.
      EXPECT_NE(counters.find("\"documents_ingested\": 120"),
                std::string::npos)
          << counters;
      continue;
    }
    EXPECT_EQ(dtd, base_dtd) << "jobs " << jobs;
    EXPECT_EQ(counters, base_counters) << "jobs " << jobs;
    EXPECT_EQ(learners, base_learners) << "jobs " << jobs;
  }
}

TEST_F(ObsTest, SchedulingCountersAreExactEvenWhenShardDependent) {
  SKIP_WITHOUT_STATS();
  std::vector<std::string> documents = GenerateCorpus(60, 31337);
  for (int jobs : {1, 3}) {
    obs::ResetStats();
    RunPipeline(documents, jobs);
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    // Streaming dedup mode probes the cache once per completed element,
    // so hits + misses == words folded — for any shard layout, even
    // though the hit/miss split itself varies with it.
    int64_t hits =
        snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupHits)];
    int64_t misses =
        snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupMisses)];
    EXPECT_EQ(hits + misses,
              snapshot.counters[static_cast<int>(
                  obs::Counter::kWordsFolded)])
        << "jobs " << jobs;
    // Every shard merges exactly once at the barrier.
    EXPECT_EQ(snapshot.sched[static_cast<int>(
                  obs::SchedCounter::kShardMerges)],
              jobs)
        << "jobs " << jobs;
    EXPECT_EQ(snapshot.sched[static_cast<int>(
                  obs::SchedCounter::kWorkerExceptions)],
              0);
    // Every probe advances the flat cache's probe loop at least once.
    EXPECT_GE(snapshot.sched[static_cast<int>(
                  obs::SchedCounter::kDedupProbeSteps)],
              hits + misses)
        << "jobs " << jobs;
    // Every fold through AddChildWord is classified dense or fallback;
    // this corpus's symbols all sit inside the dense-ID window.
    int64_t dense_hits = snapshot.sched[static_cast<int>(
        obs::SchedCounter::kDenseFoldHits)];
    int64_t dense_fallbacks = snapshot.sched[static_cast<int>(
        obs::SchedCounter::kDenseFoldFallbacks)];
    EXPECT_GT(dense_hits, 0) << "jobs " << jobs;
    EXPECT_EQ(dense_fallbacks, 0) << "jobs " << jobs;
    // The resident-bytes gauge saw a nonempty cache at some commit.
    EXPECT_GT(snapshot.gauges[static_cast<int>(
                  obs::Gauge::kDedupCacheBytesPeak)],
              0)
        << "jobs " << jobs;
  }
}

TEST_F(ObsTest, PipelineStagesAndLearnersAreObserved) {
  SKIP_WITHOUT_STATS();
  std::vector<std::string> documents = GenerateCorpus(40, 4711);
  RunPipeline(documents, 2);
  obs::StatsSnapshot snapshot = obs::SnapshotStats();
  ASSERT_TRUE(snapshot.enabled);

  auto counter = [&](obs::Counter c) {
    return snapshot.counters[static_cast<int>(c)];
  };
  EXPECT_GT(counter(obs::Counter::kBytesIngested), 0);
  EXPECT_EQ(counter(obs::Counter::kDocumentsIngested), 40);
  EXPECT_EQ(counter(obs::Counter::kDocumentsFailed), 0);
  EXPECT_GT(counter(obs::Counter::kStartTags), 0);
  EXPECT_GT(counter(obs::Counter::kWordsFolded), 0);
  EXPECT_GT(counter(obs::Counter::kChildWordFolds), 0);
  EXPECT_GT(counter(obs::Counter::kElementsLearned), 0);
  // Weighted dedup never loses occurrences: the fold multiplicities sum
  // back to the per-occurrence count.
  EXPECT_EQ(counter(obs::Counter::kChildWordFolds),
            counter(obs::Counter::kWordsFolded));

  for (obs::Stage stage : {obs::Stage::kLexParse, obs::Stage::kWordFold,
                           obs::Stage::kTwoTInf, obs::Stage::kCrxFold,
                           obs::Stage::kShardMerge, obs::Stage::kLearn}) {
    const obs::StageStats& stats =
        snapshot.stages[static_cast<int>(stage)];
    EXPECT_GT(stats.count, 0) << obs::StageName(stage);
    EXPECT_GE(stats.total_ns, 0) << obs::StageName(stage);
    int64_t bucketed = 0;
    for (int64_t b : stats.buckets) bucketed += b;
    EXPECT_EQ(bucketed, stats.count) << obs::StageName(stage);
  }

  // The default algorithm routes through "auto", which delegates each
  // element to idtd or crx — both the outer and the inner calls appear.
  int64_t auto_calls = 0;
  int64_t inner_calls = 0;
  for (const obs::LearnerStats& learner : snapshot.learners) {
    EXPECT_GT(learner.calls, 0) << learner.name;
    EXPECT_EQ(learner.failures, 0) << learner.name;
    if (learner.name == "auto") auto_calls = learner.calls;
    if (learner.name == "idtd" || learner.name == "crx") {
      inner_calls += learner.calls;
    }
  }
  EXPECT_EQ(auto_calls, counter(obs::Counter::kElementsLearned));
  EXPECT_EQ(inner_calls, auto_calls);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  obs::EnableStats(false);
  obs::ResetStats();
  std::vector<std::string> documents = GenerateCorpus(10, 99);
  RunPipeline(documents, 2);
  obs::StatsSnapshot snapshot = obs::SnapshotStats();
  EXPECT_FALSE(snapshot.enabled);
  for (int64_t value : snapshot.counters) EXPECT_EQ(value, 0);
  for (int64_t value : snapshot.sched) EXPECT_EQ(value, 0);
  for (const obs::StageStats& stage : snapshot.stages) {
    EXPECT_EQ(stage.count, 0);
    EXPECT_EQ(stage.total_ns, 0);
  }
  EXPECT_TRUE(snapshot.learners.empty());
}

TEST_F(ObsTest, CollectingStatsDoesNotChangeTheInferredDtd) {
  std::vector<std::string> documents = GenerateCorpus(50, 777);
  std::string with_stats = RunPipeline(documents, 3);
  obs::EnableStats(false);
  obs::ResetStats();
  std::string without_stats = RunPipeline(documents, 3);
  EXPECT_EQ(with_stats, without_stats);
}

TEST_F(ObsTest, JsonReportIsSchemaStable) {
  SKIP_WITHOUT_STATS();
  std::vector<std::string> documents = GenerateCorpus(15, 5);
  RunPipeline(documents, 2);
  std::string json = obs::RenderStatsJson(obs::SnapshotStats());
  EXPECT_NE(json.find("\"condtd_stats_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  for (const char* section :
       {"counters", "learners", "scheduling", "gauges", "wall"}) {
    EXPECT_FALSE(JsonSection(json, section).empty()) << section;
  }
  // Every counter key renders, in enum order, even when zero.
  std::string counters = JsonSection(json, "counters");
  size_t last = 0;
  for (int c = 0; c < static_cast<int>(obs::Counter::kNumCounters); ++c) {
    std::string key = "\"";
    key += obs::CounterName(static_cast<obs::Counter>(c));
    key += "\":";
    size_t at = counters.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, last) << key << " out of order";
    last = at;
  }
  // An all-zero snapshot still renders the full schema.
  obs::ResetStats();
  std::string empty_json = obs::RenderStatsJson(obs::SnapshotStats());
  EXPECT_NE(empty_json.find("\"condtd_stats_version\": 1"),
            std::string::npos);
  EXPECT_FALSE(JsonSection(empty_json, "counters").empty());
}

TEST_F(ObsTest, TextReportNamesStagesAndLearners) {
  SKIP_WITHOUT_STATS();
  std::vector<std::string> documents = GenerateCorpus(15, 6);
  RunPipeline(documents, 2);
  std::string text = obs::RenderStatsText(obs::SnapshotStats());
  EXPECT_NE(text.find("documents_ingested"), std::string::npos) << text;
  EXPECT_NE(text.find("lex_parse"), std::string::npos) << text;
  EXPECT_NE(text.find("auto"), std::string::npos) << text;
}

TEST_F(ObsTest, FailedDocumentsCountPerCallAndThroughAFolder) {
  SKIP_WITHOUT_STATS();
  const std::string good = "<a><b/><b/></a>";
  const std::string bad = "<a><b></a>";
  {
    obs::ResetStats();
    DtdInferrer per_call;  // one StreamingFolder per AddXml
    EXPECT_TRUE(per_call.AddXml(good).ok());
    EXPECT_FALSE(per_call.AddXml(bad).ok());
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    EXPECT_EQ(snapshot.counters[static_cast<int>(
                  obs::Counter::kDocumentsIngested)],
              1);
    EXPECT_EQ(snapshot.counters[static_cast<int>(
                  obs::Counter::kDocumentsFailed)],
              1);
  }
  {
    obs::ResetStats();
    DtdInferrer inferrer;
    StreamingFolder folder(&inferrer);  // one folder for the corpus
    EXPECT_TRUE(folder.AddXml(good).ok());
    EXPECT_FALSE(folder.AddXml(bad).ok());
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    EXPECT_EQ(snapshot.counters[static_cast<int>(
                  obs::Counter::kDocumentsIngested)],
              1);
    EXPECT_EQ(snapshot.counters[static_cast<int>(
                  obs::Counter::kDocumentsFailed)],
              1);
  }
}

TEST_F(ObsTest, FoldStagesCountOneSpanPerFlush) {
  SKIP_WITHOUT_STATS();
  // The fold stages time whole flushes, not words: one word_fold span
  // per dedup flush, with one crx_fold and one two_t_inf span inside.
  std::vector<std::string> documents = GenerateCorpus(60, 8128);
  auto expect_one_span_per_flush = [](const std::string& label) {
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    int64_t flushes =
        snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupFlushes)];
    EXPECT_GE(flushes, 1) << label;
    for (obs::Stage stage : {obs::Stage::kWordFold, obs::Stage::kTwoTInf,
                             obs::Stage::kCrxFold}) {
      EXPECT_EQ(snapshot.stages[static_cast<int>(stage)].count, flushes)
          << label << " " << obs::StageName(stage);
    }
  };
  for (int jobs : {1, 3}) {
    obs::ResetStats();
    RunPipeline(documents, jobs);
    expect_one_span_per_flush("jobs " + std::to_string(jobs));
  }
  // A cache this small flushes every few documents.
  obs::ResetStats();
  DtdInferrer inferrer;
  StreamingFolder::Options options;
  options.max_distinct_words = 4;
  {
    StreamingFolder folder(&inferrer, options);
    for (const std::string& doc : documents) {
      ASSERT_TRUE(folder.AddXml(doc).ok());
    }
  }
  EXPECT_GT(obs::SnapshotStats().sched[static_cast<int>(
                obs::SchedCounter::kDedupFlushes)],
            10);
  expect_one_span_per_flush("early flushes");
}

/// Documents that leave through every exit of the fold, around a
/// generated corpus: entities in text and in attribute values, a lexer
/// failure (after three start tags), a mismatched end tag (a fold
/// failure when strict, a lenient recovery when lenient) and a document
/// with no root (a fold failure either way).
std::vector<std::string> MixedCorpus() {
  std::vector<std::string> documents = GenerateCorpus(12, 424242);
  const std::vector<std::string> extra = {
      "<feed><entry><title>a &amp; b</title><link rel=\"x&lt;y\"/>"
      "<author><name>n &#65;</name></author></entry></feed>",
      "<feed><entry><title>t</title><link href=x/></entry></feed>",
      "<feed><entry><title>t &gt; u</title></feed>",
      "<!-- no root -->",
      "<feed><entry><title>s</title><link rel=\"a\" href=\"&quot;\"/>"
      "<author><name>m</name></author></entry></feed>",
  };
  for (size_t i = 0; i < extra.size(); ++i) {
    documents.insert(documents.begin() + 2 * i + 1, extra[i]);
  }
  return documents;
}

/// Every deterministic counter, then dedup hits + misses.
std::vector<int64_t> CounterValues() {
  obs::StatsSnapshot snapshot = obs::SnapshotStats();
  std::vector<int64_t> values(snapshot.counters.begin(),
                              snapshot.counters.end());
  values.push_back(
      snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupHits)] +
      snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupMisses)]);
  return values;
}

TEST_F(ObsTest, CountersPublishedPerDocumentKeepTheirTotals) {
  SKIP_WITHOUT_STATS();
  // The lexer and the fold count in plain members and publish once per
  // document, on every exit path; the totals are those of counting each
  // event as it happens (pinned from the per-event build).
  const std::vector<std::string> documents = MixedCorpus();
  const std::vector<int64_t> expected_strict = {
      5413, 14, 3, 207, 114, 3, 5, 203, 201, 0, 0, 0, 0, 0, 0, 0, 0, 203};
  const std::vector<int64_t> expected_lenient = {
      5413, 15, 2, 207, 114, 3, 5, 205, 204, 0, 0, 0, 0, 0, 0, 0, 0, 205};
  for (bool lenient : {false, true}) {
    InferenceOptions inference;
    inference.lenient_xml = lenient;
    const std::vector<int64_t>& expected =
        lenient ? expected_lenient : expected_strict;
    for (int jobs : {1, 3}) {
      obs::ResetStats();
      IngestEngine::Options options;
      options.inference = inference;
      options.jobs = jobs;
      IngestEngine engine(options);
      for (const std::string& doc : documents) engine.AddXml(doc);
      EXPECT_FALSE(engine.Finish().ok());
      EXPECT_EQ(CounterValues(), expected)
          << "lenient " << lenient << " jobs " << jobs;
    }
    obs::ResetStats();
    IngestSession session(inference);
    int64_t ended = 0;
    for (const std::string& doc : documents) {
      (void)session.Ingest(doc);
      // A snapshot between documents holds every count of the ones
      // that ended.
      std::vector<int64_t> values = CounterValues();
      EXPECT_EQ(values[static_cast<int>(obs::Counter::kDocumentsIngested)] +
                    values[static_cast<int>(obs::Counter::kDocumentsFailed)],
                ++ended);
      EXPECT_EQ(values.back(),
                values[static_cast<int>(obs::Counter::kWordsFolded)]);
    }
    std::string state;
    session.Snapshot(&state, nullptr);
    EXPECT_EQ(CounterValues(), expected) << "session, lenient " << lenient;
  }
  // A failed document publishes its probe steps with its hits and
  // misses, so the probe loop's count bounds them even when the last
  // document fails.
  obs::ResetStats();
  {
    DtdInferrer inferrer;
    StreamingFolder folder(&inferrer);
    ASSERT_TRUE(folder.AddXml("<a><b/></a>").ok());
    ASSERT_FALSE(folder.AddXml("<a><b/><b/><c/></x>").ok());
  }
  obs::StatsSnapshot snapshot = obs::SnapshotStats();
  EXPECT_GE(
      snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupProbeSteps)],
      snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupHits)] +
          snapshot.sched[static_cast<int>(obs::SchedCounter::kDedupMisses)]);
  // The DOM parser's lexer publishes when it goes out of scope.
  obs::ResetStats();
  ASSERT_TRUE(ParseXml(documents[1]).ok());
  EXPECT_EQ(obs::SnapshotStats().counters[static_cast<int>(
                obs::Counter::kStartTags)],
            6);
  EXPECT_EQ(obs::SnapshotStats().counters[static_cast<int>(
                obs::Counter::kEntityDecodes)],
            3);
}

}  // namespace
}  // namespace condtd
