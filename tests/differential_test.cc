// Differential goldens across the learner refactor: the DTDs below were
// captured from the pre-refactor engine (enum-dispatched learners, the
// summaries inlined in DtdInferrer::ElementState) and pin the unified
// SummaryStore/LearnerRegistry engine byte-for-byte — for every built-in
// algorithm, across the reference fold (src/check/), the streaming fold
// and the sharded pipeline.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/reference_fold.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "regex/properties.h"

namespace condtd {
namespace {

// --- corpora --------------------------------------------------------------

// Corpus A exercises optionality, repetition, mixed content, EMPTY
// elements, attributes, and a dense element ("row", 240+ occurrences)
// that crosses the auto policy's iDTD threshold.
std::vector<std::string> CorpusA() {
  std::vector<std::string> docs = {
      "<db><rec id=\"1\"><k>alpha</k><v>1</v></rec>"
      "<rec id=\"2\"><k>beta</k><note>n</note><note>m</note></rec></db>",
      "<db><rec id=\"3\"><k>gamma</k><v>2</v><note>x</note></rec>"
      "<meta/><rec id=\"4\"><k>delta</k></rec></db>",
      "<db><mix>text <b>bold</b> and <i>ital</i> tail</mix>"
      "<rec id=\"5\"><k>eps</k><v>3</v></rec></db>",
  };
  std::string dense = "<db><grid>";
  for (int i = 0; i < 120; ++i) {
    dense += "<row><a/>";
    if (i % 2 == 0) dense += "<b/>";
    if (i % 3 == 0) dense += "<c/>";
    dense += "<a/></row>";
  }
  dense += "</grid></db>";
  docs.push_back(std::move(dense));
  docs.push_back(
      "<db><grid><row><a/><c/><a/></row><row><a/><b/><a/></row></grid>"
      "<rec id=\"6\"><k>zeta</k><note>t</note></rec></db>");
  return docs;
}

// Corpus B is fully representative: every algorithm — including plain
// Algorithm 1 rewrite — agrees on it.
std::vector<std::string> CorpusB() {
  return {
      "<lib><shelf><bk><t>a</t><au>x</au><au>y</au></bk>"
      "<bk><t>b</t><au>z</au></bk></shelf></lib>",
      "<lib><shelf><bk><t>c</t><au>w</au><au>v</au><au>u</au></bk></shelf>"
      "<shelf><bk><t>d</t><au>q</au></bk></shelf></lib>",
      "<lib><shelf><bk><t>e</t><au>r</au></bk></shelf></lib>",
  };
}

// --- pre-refactor goldens -------------------------------------------------

constexpr char kGoldenAIdtd[] =
    "<!ELEMENT db ((mix | grid)?, (rec | meta)*)>\n"
    "<!ELEMENT rec (k, v?, note*)>\n"
    "<!ATTLIST rec\n"
    "  id CDATA #REQUIRED>\n"
    "<!ELEMENT k (#PCDATA)>\n"
    "<!ELEMENT v (#PCDATA)>\n"
    "<!ELEMENT note (#PCDATA)>\n"
    "<!ELEMENT meta EMPTY>\n"
    "<!ELEMENT mix (#PCDATA | b | i)*>\n"
    "<!ELEMENT b (#PCDATA)>\n"
    "<!ELEMENT i (#PCDATA)>\n"
    "<!ELEMENT grid (row)+>\n"
    // A sequence alternative is parenthesized: "(a | b?, c?)" would be
    // rejected by the DTD grammar as mixed separators.
    "<!ELEMENT row (a | (b?, c?))+>\n"
    "<!ELEMENT a EMPTY>\n"
    "<!ELEMENT c EMPTY>\n";

constexpr char kGoldenACrx[] =
    "<!ELEMENT db ((mix | grid)?, (rec | meta)*)>\n"
    "<!ELEMENT rec (k, v?, note*)>\n"
    "<!ATTLIST rec\n"
    "  id CDATA #REQUIRED>\n"
    "<!ELEMENT k (#PCDATA)>\n"
    "<!ELEMENT v (#PCDATA)>\n"
    "<!ELEMENT note (#PCDATA)>\n"
    "<!ELEMENT meta EMPTY>\n"
    "<!ELEMENT mix (#PCDATA | b | i)*>\n"
    "<!ELEMENT b (#PCDATA)>\n"
    "<!ELEMENT i (#PCDATA)>\n"
    "<!ELEMENT grid (row)+>\n"
    "<!ELEMENT row (b | a | c)+>\n"
    "<!ELEMENT a EMPTY>\n"
    "<!ELEMENT c EMPTY>\n";

// Algorithm 1 has no repair rules, so it must fail on the (deliberately
// non-representative) corpus A with exactly this diagnostic.
constexpr char kGoldenARewriteError[] =
    "NoEquivalentSore: rewrite: no SORE is equivalent to the given SOA "
    "(4 nodes remain)";

constexpr char kGoldenB[] =
    "<!ELEMENT lib (shelf)+>\n"
    "<!ELEMENT shelf (bk)+>\n"
    "<!ELEMENT bk (t, au+)>\n"
    "<!ELEMENT t (#PCDATA)>\n"
    "<!ELEMENT au (#PCDATA)>\n";

// --- ingestion paths ------------------------------------------------------

InferenceOptions OptionsFor(const std::string& learner) {
  InferenceOptions options;
  options.learner = learner;
  return options;
}

Result<std::string> ReferenceDtd(const std::vector<std::string>& docs,
                                 const std::string& learner) {
  DtdInferrer inferrer(OptionsFor(learner));
  for (const std::string& doc : docs) {
    Status status = ReferenceFoldXml(doc, &inferrer);
    if (!status.ok()) return status;
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

Result<std::string> StreamingDtd(const std::vector<std::string>& docs,
                                 const std::string& learner) {
  DtdInferrer inferrer(OptionsFor(learner));
  StreamingFolder folder(&inferrer);
  for (const std::string& doc : docs) {
    Status status = folder.AddXml(doc);
    if (!status.ok()) return status;
  }
  folder.Flush();
  Result<Dtd> dtd = inferrer.InferDtd();
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

Result<std::string> ShardedDtd(const std::vector<std::string>& docs,
                               const std::string& learner, int jobs) {
  IngestEngine::Options options;
  options.inference = OptionsFor(learner);
  options.jobs = jobs;
  IngestEngine engine(options);
  for (const std::string& doc : docs) engine.AddXml(doc);
  CONDTD_RETURN_IF_ERROR(engine.Finish());
  Result<Dtd> dtd = engine.inferrer().InferDtd(engine.infer_threads());
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(dtd.value(), *engine.inferrer().alphabet());
}

// Runs every ingestion path and requires the identical outcome.
void ExpectEverywhere(const std::vector<std::string>& docs,
                      const std::string& learner,
                      const std::string& want_dtd,
                      const std::string& want_error = "") {
  auto check = [&](Result<std::string> got, const std::string& path) {
    if (!want_error.empty()) {
      ASSERT_FALSE(got.ok()) << learner << " via " << path;
      EXPECT_EQ(got.status().ToString(), want_error)
          << learner << " via " << path;
      return;
    }
    ASSERT_TRUE(got.ok())
        << learner << " via " << path << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), want_dtd) << learner << " via " << path;
  };
  check(ReferenceDtd(docs, learner), "reference-fold");
  check(StreamingDtd(docs, learner), "streaming");
  for (int jobs : {1, 2, 7}) {
    check(ShardedDtd(docs, learner, jobs),
          "sharded-jobs-" + std::to_string(jobs));
  }
}

// --- tests ----------------------------------------------------------------

TEST(Differential, CorpusAAuto) {
  ExpectEverywhere(CorpusA(), "auto", kGoldenAIdtd);
}

TEST(Differential, CorpusAIdtd) {
  ExpectEverywhere(CorpusA(), "idtd", kGoldenAIdtd);
}

TEST(Differential, CorpusACrx) {
  ExpectEverywhere(CorpusA(), "crx", kGoldenACrx);
}

TEST(Differential, CorpusARewritePinnedFailure) {
  ExpectEverywhere(CorpusA(), "rewrite", "", kGoldenARewriteError);
}

// The interleaving learners must be byte-identical to their baselines on
// ordered corpora: corpus A never shows two orders for any symbol pair,
// so isore degrades to exactly the idtd output and sire to the crx one —
// on every ingestion path and job count.
TEST(Differential, CorpusAIsoreMatchesIdtd) {
  ExpectEverywhere(CorpusA(), "isore", kGoldenAIdtd);
}

TEST(Differential, CorpusASireMatchesCrx) {
  ExpectEverywhere(CorpusA(), "sire", kGoldenACrx);
}

TEST(Differential, CorpusBAllAlgorithmsAgree) {
  for (const char* learner :
       {"auto", "idtd", "crx", "isore", "sire", "rewrite"}) {
    ExpectEverywhere(CorpusB(), learner, kGoldenB);
  }
}

// --- unordered corpus -----------------------------------------------------

// The checked-in corpus of tests/data/unordered: 12 documents generated
// from truth.dtd with
//   condtd gen --schema=truth.dtd --count=12 --seed=20060912 --unordered
// Every <item> carries the four children in a random permutation, so
// each symbol pair is seen in both orders and the interleaving partition
// splits into singletons.
std::vector<std::string> UnorderedCorpusPaths() {
  std::vector<std::string> paths;
  for (int i = 0; i < 12; ++i) {
    paths.push_back(std::string(CONDTD_TEST_DATA_DIR) + "/unordered/doc" +
                    std::to_string(i) + ".xml");
  }
  return paths;
}

constexpr char kGoldenUnorderedIsore[] =
    "<!ELEMENT root (item)+>\n"
    "<!ELEMENT item (qty & price & sku & vendor)>\n"
    "<!ELEMENT qty EMPTY>\n"
    "<!ELEMENT price EMPTY>\n"
    "<!ELEMENT sku EMPTY>\n"
    "<!ELEMENT vendor EMPTY>\n";

constexpr char kGoldenUnorderedIdtd[] =
    "<!ELEMENT root (item)+>\n"
    "<!ELEMENT item (qty | price | sku | vendor)+>\n"
    "<!ELEMENT qty EMPTY>\n"
    "<!ELEMENT price EMPTY>\n"
    "<!ELEMENT sku EMPTY>\n"
    "<!ELEMENT vendor EMPTY>\n";

// File-based ingestion through the batch engine — the path the CLI
// takes — with and without mmap.
Result<std::string> EngineDtdFromFiles(const std::vector<std::string>& paths,
                                       const std::string& learner, int jobs,
                                       bool allow_mmap) {
  IngestEngine::Options options;
  options.inference.learner = learner;
  options.input.allow_mmap = allow_mmap;
  options.jobs = jobs;
  IngestEngine engine(options);
  for (const std::string& path : paths) engine.AddFile(path);
  Status status = engine.Finish();
  if (!status.ok()) return status;
  Result<Dtd> dtd = engine.inferrer().InferDtd();
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(dtd.value(), *engine.inferrer().alphabet());
}

// The ISSUE's acceptance bar: on the unordered corpus, isore emits an
// `&`-factor content model strictly more concise than the idtd SORE on
// the same input — stable across mmap/no-mmap and jobs 1/2/7.
TEST(Differential, UnorderedCorpusIsoreConcisenessWin) {
  std::vector<std::string> paths = UnorderedCorpusPaths();
  for (int jobs : {1, 2, 7}) {
    for (bool mmap : {true, false}) {
      std::string label =
          "jobs=" + std::to_string(jobs) + (mmap ? " mmap" : " no-mmap");
      Result<std::string> isore =
          EngineDtdFromFiles(paths, "isore", jobs, mmap);
      ASSERT_TRUE(isore.ok()) << label << ": " << isore.status().ToString();
      EXPECT_EQ(isore.value(), kGoldenUnorderedIsore) << label;
      Result<std::string> idtd =
          EngineDtdFromFiles(paths, "idtd", jobs, mmap);
      ASSERT_TRUE(idtd.ok()) << label << ": " << idtd.status().ToString();
      EXPECT_EQ(idtd.value(), kGoldenUnorderedIdtd) << label;
    }
  }

  // "Strictly more concise", stated on the parsed content models rather
  // than on string lengths: fewer tokens for the same element.
  Alphabet isore_alphabet;
  Result<Dtd> isore_dtd = ParseDtd(kGoldenUnorderedIsore, &isore_alphabet);
  ASSERT_TRUE(isore_dtd.ok()) << isore_dtd.status().ToString();
  Alphabet idtd_alphabet;
  Result<Dtd> idtd_dtd = ParseDtd(kGoldenUnorderedIdtd, &idtd_alphabet);
  ASSERT_TRUE(idtd_dtd.ok()) << idtd_dtd.status().ToString();
  Symbol isore_item = isore_alphabet.Find("item");
  Symbol idtd_item = idtd_alphabet.Find("item");
  ASSERT_NE(isore_item, kInvalidSymbol);
  ASSERT_NE(idtd_item, kInvalidSymbol);
  const ReRef& shuffled = isore_dtd->elements.at(isore_item).regex;
  const ReRef& sore = idtd_dtd->elements.at(idtd_item).regex;
  EXPECT_EQ(shuffled->kind(), ReKind::kShuffle);
  EXPECT_LT(CountTokens(shuffled), CountTokens(sore));
}

// The sire learner factors the same corpus with CHARE factors.
TEST(Differential, UnorderedCorpusSireEmitsShuffle) {
  Result<std::string> sire =
      EngineDtdFromFiles(UnorderedCorpusPaths(), "sire", 1, true);
  ASSERT_TRUE(sire.ok()) << sire.status().ToString();
  EXPECT_NE(sire.value().find(" & "), std::string::npos) << sire.value();
}

// Persisted state from one path restores into another without changing
// the result (save from streaming, load into a fresh engine).
TEST(Differential, SaveLoadCrossesIngestionPaths) {
  DtdInferrer streaming_side;
  StreamingFolder folder(&streaming_side);
  for (const std::string& doc : CorpusA()) {
    ASSERT_TRUE(folder.AddXml(doc).ok());
  }
  folder.Flush();
  DtdInferrer restored;
  ASSERT_TRUE(restored.LoadState(streaming_side.SaveState()).ok());
  Result<Dtd> dtd = restored.InferDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(WriteDtd(dtd.value(), *restored.alphabet()), kGoldenAIdtd);
}

}  // namespace
}  // namespace condtd
