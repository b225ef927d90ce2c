#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "automaton/soa.h"
#include "automaton/two_t_inf.h"
#include "base/rng.h"
#include "check/reference_fold.h"
#include "crx/crx.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "tests/testing.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace condtd {
namespace {

using testing_util::WordsFromStrings;

// --- weighted fold algebra ------------------------------------------------

/// Structural equality plus every support count (Soa::Equals ignores
/// supports on purpose; these tests must not).
void ExpectSoaIdentical(const Soa& a, const Soa& b) {
  ASSERT_TRUE(a.Equals(b));
  EXPECT_EQ(a.empty_support(), b.empty_support());
  for (int q = 0; q < a.NumStates(); ++q) {
    int bq = b.StateOf(a.LabelOf(q));
    ASSERT_GE(bq, 0);
    EXPECT_EQ(a.StateSupport(q), b.StateSupport(bq));
    EXPECT_EQ(a.InitialSupport(q), b.InitialSupport(bq));
    EXPECT_EQ(a.FinalSupport(q), b.FinalSupport(bq));
    for (int to : a.Successors(q)) {
      EXPECT_EQ(a.EdgeSupport(q, to),
                b.EdgeSupport(bq, b.StateOf(a.LabelOf(to))));
    }
  }
}

/// The histogram multisets and counts; →_W is the edge set of the SOA
/// folded from the same words, which ExpectSoaIdentical compares.
void ExpectCrxIdentical(const CrxState& a, const CrxState& b) {
  EXPECT_EQ(a.SortedHistograms(), b.SortedHistograms());
  EXPECT_EQ(a.empty_count(), b.empty_count());
  EXPECT_EQ(a.num_words(), b.num_words());
}

TEST(WeightedFold, Fold2TTimesKEqualsKFolds) {
  Alphabet alphabet;
  std::vector<Word> words =
      WordsFromStrings({"abc", "", "ab", "cba", "b", "aab"}, &alphabet);
  for (int k : {1, 2, 7, 100}) {
    Soa weighted;
    Soa repeated;
    for (const Word& word : words) {
      Fold2T(word, &weighted, k);
      for (int i = 0; i < k; ++i) Fold2T(word, &repeated);
    }
    ExpectSoaIdentical(weighted, repeated);
  }
}

TEST(WeightedFold, CrxAddWordTimesKEqualsKAdds) {
  Alphabet alphabet;
  std::vector<Word> words =
      WordsFromStrings({"aab", "", "ba", "ab", "c", "aab"}, &alphabet);
  for (int k : {1, 3, 50}) {
    CrxState weighted;
    CrxState repeated;
    Soa weighted_soa;
    Soa repeated_soa;
    for (const Word& word : words) {
      weighted.AddWord(word, k);
      Fold2T(word, &weighted_soa, k);
      for (int i = 0; i < k; ++i) {
        repeated.AddWord(word);
        Fold2T(word, &repeated_soa);
      }
    }
    ExpectCrxIdentical(weighted, repeated);
    ExpectSoaIdentical(weighted_soa, repeated_soa);
  }
}

TEST(WeightedFold, NonPositiveMultiplicityIsANoOp) {
  Alphabet alphabet;
  Word word = alphabet.WordFromChars("ab");
  Soa soa;
  Fold2T(word, &soa, 0);
  Fold2T(word, &soa, -3);
  EXPECT_EQ(soa.NumStates(), 0);
  CrxState crx;
  crx.AddWord(word, 0);
  crx.AddWord(word, -1);
  EXPECT_EQ(crx.num_words(), 0);
}

// --- corpus fixtures ------------------------------------------------------

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
    Result<XmlDocument> doc =
        GenerateDocument(truth.value(), alphabet, &rng);
    EXPECT_TRUE(doc.ok());
    documents.push_back(doc->ToXml());
  }
  return documents;
}

/// Strict documents exercising every lexical feature the SAX path must
/// reproduce: entities (named + numeric), CDATA, comments, PIs, DOCTYPE,
/// attributes (quoted both ways, entity-bearing, valueless), mixed text,
/// self-closing tags, deep nesting, repeated words for the dedup cache.
std::vector<std::string> HandwrittenStrictCorpus() {
  return {
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE feed [<!ELEMENT feed ANY>]>\n"
      "<feed><entry id=\"1\" lang='en'><title>A &amp; B &#65;</title>"
      "<author/></entry></feed>",
      "<feed><!-- comment --><entry id=\"2&amp;3\"><title><![CDATA[raw "
      "<markup>&amp; kept]]></title><author selected/></entry>"
      "<entry><title>plain</title><author/></entry></feed>",
      "<feed><?pi data?><entry><title>x</title>tail text"
      "<author/></entry></feed>",
      "<deep><a><b><c><d>leaf</d></c></b><a><b><c/></b></a></a></deep>",
      "<feed><entry><title>dup</title><author/></entry>"
      "<entry><title>dup</title><author/></entry>"
      "<entry><title>dup</title><author/></entry></feed>",
  };
}

/// Tag-soup documents for the lenient mode: mismatched end tags (auto-
/// close), stray end tags (dropped), unclosed elements (closed at EOF),
/// and content after the root (dropped without interning).
std::vector<std::string> TagSoupCorpus() {
  return {
      "<html><body><p>one<p>two</body></html>",
      "<html><body><b>bold</i></b></body>",
      "<html><body><p>unclosed",
      "<html><body/></html><junk>after</junk> trailing text",
      "<html></stray><body><p>ok</p></body></html>",
      "<html><head><title>t</title></head><body><p>a</p><p>b</body></html>",
  };
}

/// The reference fold (src/check/): DOM parse, then one word at a time.
std::string ReferenceDtd(const std::vector<std::string>& documents,
                         InferenceOptions options = {}) {
  DtdInferrer inferrer(options);
  for (const std::string& doc : documents) {
    Status status = ReferenceFoldXml(doc, &inferrer);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

std::string StreamingDtd(const std::vector<std::string>& documents,
                         InferenceOptions options = {},
                         StreamingFolder::Options folder_options = {}) {
  DtdInferrer inferrer(options);
  StreamingFolder folder(&inferrer, folder_options);
  for (const std::string& doc : documents) {
    Status status = folder.AddXml(doc);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  folder.Flush();
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

std::string ParallelDtd(const std::vector<std::string>& documents,
                        int num_threads, InferenceOptions options = {}) {
  IngestEngine::Options engine_options;
  engine_options.inference = options;
  engine_options.jobs = num_threads;
  IngestEngine engine(engine_options);
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_TRUE(status.ok()) << status.ToString();
  Result<Dtd> dtd = engine.inferrer().InferDtd(engine.infer_threads());
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *engine.inferrer().alphabet());
}

/// The fold contract: the streaming fold (corpus-level, per-call, tiny
/// flush threshold) and the sharded parallel pipeline at several job
/// counts must all emit the reference fold's DTD byte for byte.
void ExpectAllPathsIdentical(const std::vector<std::string>& documents,
                             InferenceOptions options = {}) {
  std::string expected = ReferenceDtd(documents, options);
  EXPECT_EQ(StreamingDtd(documents, options), expected) << "streaming";
  StreamingFolder::Options tiny_cache;
  tiny_cache.max_distinct_words = 2;
  EXPECT_EQ(StreamingDtd(documents, options, tiny_cache), expected)
      << "streaming with per-document flushes";
  {
    DtdInferrer per_call(options);
    for (const std::string& doc : documents) {
      Status status = per_call.AddXml(doc);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    Result<Dtd> dtd = per_call.InferDtd();
    ASSERT_TRUE(dtd.ok());
    EXPECT_EQ(WriteDtd(dtd.value(), *per_call.alphabet()), expected)
        << "DtdInferrer::AddXml per call";
  }
  for (int jobs : {1, 2, 7}) {
    EXPECT_EQ(ParallelDtd(documents, jobs, options), expected)
        << "parallel, " << jobs << " jobs";
  }
}

// --- differential: all ingestion paths agree ------------------------------

TEST(StreamingDifferential, GeneratedCorpus) {
  ExpectAllPathsIdentical(GenerateCorpus(240, 20060912));
}

TEST(StreamingDifferential, HandwrittenStrictCorpus) {
  ExpectAllPathsIdentical(HandwrittenStrictCorpus());
}

TEST(StreamingDifferential, LenientTagSoupCorpus) {
  InferenceOptions options;
  options.lenient_xml = true;
  ExpectAllPathsIdentical(TagSoupCorpus(), options);
}

TEST(StreamingDifferential, SummariesMatchExactly) {
  // Beyond the DTD: the retained per-element summaries themselves must
  // agree with the reference fold (same SaveState text), per call and
  // corpus-level, text datatype masks included.
  std::vector<std::string> documents = HandwrittenStrictCorpus();
  // Nested same-name elements, the outer one mixed: `n`'s values 7, 1
  // and +3 are all integers and decimals (2 | 4), not all booleans.
  documents.push_back("<deep><n> 7 <n>1</n></n></deep>");
  documents.push_back("<deep><n>+3</n></deep>");
  DtdInferrer reference;
  DtdInferrer per_call;
  DtdInferrer corpus;
  {
    StreamingFolder folder(&corpus);
    for (const std::string& doc : documents) {
      ASSERT_TRUE(ReferenceFoldXml(doc, &reference).ok());
      ASSERT_TRUE(per_call.AddXml(doc).ok());
      ASSERT_TRUE(folder.AddXml(doc).ok());
    }
  }
  const std::string state = reference.SaveState();
  EXPECT_NE(state.find("\nelement n 3 1\ntext.types 6\n"), std::string::npos)
      << state;
  EXPECT_EQ(state.find("\ntext "), std::string::npos) << state;
  EXPECT_EQ(per_call.SaveState(), reference.SaveState());
  EXPECT_EQ(corpus.SaveState(), reference.SaveState());
}

// --- error parity and transactionality ------------------------------------

TEST(StreamingErrors, StrictErrorsMatchTheParser) {
  const std::vector<std::string> bad = {
      "<a><b></a>",                 // mismatched closing tag
      "<a></a></b>",                // stray closing tag
      "<a><b>",                     // unexpected end of document
      "",                           // no root element
      "<a/><b/>",                   // multiple roots
      "<a/>text after root",        // character data outside root
      "<a/><!DOCTYPE x>",           // DOCTYPE after the root
      "<a attr=unquoted/>",         // lexical error
      "<a><!-- unterminated",       // lexical error
  };
  for (const std::string& doc : bad) {
    DtdInferrer sax;
    Status parse_status = ParseXml(doc).status();
    Status sax_status = sax.AddXml(doc);
    EXPECT_FALSE(parse_status.ok()) << doc;
    EXPECT_FALSE(sax_status.ok()) << doc;
    EXPECT_EQ(parse_status.ToString(), sax_status.ToString()) << doc;
  }
}

TEST(StreamingErrors, FailedDocumentContributesNoSummaries) {
  std::vector<std::string> documents = GenerateCorpus(20, 5);
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  int64_t failures = 0;
  for (size_t i = 0; i < documents.size(); ++i) {
    const std::string& doc =
        (i == 7) ? "<broken><unclosed></broken>"
                 : (i == 13 ? "not xml at all" : documents[i]);
    failures += folder.AddXml(doc).ok() ? 0 : 1;
  }
  folder.Flush();
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(folder.documents_folded(), 18);
  EXPECT_EQ(inferrer.WordCount(inferrer.alphabet()->Find("feed")), 18);
  // The partially-parsed <broken> document must not have left state.
  EXPECT_EQ(inferrer.WordCount(inferrer.alphabet()->Find("broken")), 0);
}

TEST(StreamingErrors, ParallelStreamingKeepsErrorReporting) {
  // The PR 1 error-reporting pin, now exercised through streaming shards.
  std::vector<std::string> documents = GenerateCorpus(20, 5);
  documents[7] = "<broken><unclosed></broken>";
  documents[13] = "not xml at all";
  IngestEngine::Options options;
  options.jobs = 3;
  IngestEngine engine(options);
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 2u);
  EXPECT_EQ(engine.errors()[0].doc_index, 7);
  EXPECT_EQ(engine.errors()[1].doc_index, 13);
  EXPECT_EQ(engine.inferrer().WordCount(
                engine.inferrer().alphabet()->Find("feed")),
            18);
}

// --- vertical context -----------------------------------------------------

TEST(StreamingContexts, SplitEachWordByItsParent) {
  DtdInferrer inferrer;
  ContextSummaries contexts;
  {
    StreamingFolder folder(&inferrer);
    folder.AttachContexts(&contexts);
    ASSERT_TRUE(folder.AddXml("<r><x><id/></x><y><id/>t<id/></y></r>").ok());
    // A rejected document leaves the map as it was.
    EXPECT_FALSE(folder.AddXml("<r><x><id/></x><y>").ok());
  }
  const Alphabet& names = *inferrer.alphabet();
  std::vector<std::string> keys;
  for (const auto& [key, summary] : contexts) {
    keys.push_back(names.Name(key.first) + " under " +
                   (key.second == kInvalidSymbol ? "<root>"
                                                 : names.Name(key.second)) +
                   ": " + std::to_string(summary.occurrences) +
                   (summary.has_text ? " text" : ""));
  }
  // Keyed (element, parent), ids in start-tag order: r x id y.
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "r under <root>: 1", "x under r: 1", "id under x: 1",
                      "id under y: 2", "y under r: 1 text"}));
}

TEST(StreamingContexts, AttachedMapLeavesTheStoreAsItWas) {
  // Strict with rejected documents, and lenient over tag soup: folding
  // with a map attached writes the same store, and the map's summaries
  // split each element's occurrences by parent.
  std::vector<std::string> strict = GenerateCorpus(60, 11);
  strict.insert(strict.begin() + 20, "<feed><entry><title>t</title>");
  strict.insert(strict.begin() + 40, "<feed></entry>");
  for (bool lenient : {false, true}) {
    const std::vector<std::string> documents =
        lenient ? TagSoupCorpus() : strict;
    InferenceOptions options;
    options.lenient_xml = lenient;
    DtdInferrer plain(options);
    DtdInferrer with_map(options);
    ContextSummaries contexts;
    {
      StreamingFolder plain_folder(&plain);
      StreamingFolder map_folder(&with_map);
      map_folder.AttachContexts(&contexts);
      for (const std::string& doc : documents) {
        EXPECT_EQ(plain_folder.AddXml(doc).ok(), map_folder.AddXml(doc).ok());
      }
    }
    EXPECT_EQ(with_map.SaveState(), plain.SaveState());
    std::map<Symbol, int64_t> occurrences;
    for (const auto& [key, summary] : contexts) {
      occurrences[key.first] += summary.occurrences;
    }
    ASSERT_EQ(occurrences.size(), with_map.Elements().size());
    for (const auto& [element, count] : occurrences) {
      EXPECT_EQ(count, with_map.WordCount(element));
    }
  }
}

// --- dedup accounting -----------------------------------------------------

TEST(StreamingDedup, RepeatedWordsFoldOnce) {
  // 50 identical documents: every (element, word) pair is cached once and
  // applied as a single weighted fold at Flush().
  std::vector<std::string> documents(
      50, "<feed><entry><title>t</title><author/></entry></feed>");
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  for (const std::string& doc : documents) {
    ASSERT_TRUE(folder.AddXml(doc).ok());
  }
  EXPECT_EQ(folder.documents_folded(), 50);
  EXPECT_EQ(folder.words_folded(), 50 * 4);
  EXPECT_EQ(folder.distinct_words_cached(), 4);  // feed, entry, title, author
  folder.Flush();
  EXPECT_EQ(folder.weighted_folds_applied(), 4);
  EXPECT_EQ(inferrer.WordCount(inferrer.alphabet()->Find("entry")), 50);
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(WriteDtd(dtd.value(), *inferrer.alphabet()),
            ReferenceDtd(documents));
}

TEST(StreamingDedup, FlushIsIdempotent) {
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  ASSERT_TRUE(folder.AddXml("<a><b/><b/></a>").ok());
  folder.Flush();
  int64_t count = inferrer.WordCount(inferrer.alphabet()->Find("b"));
  folder.Flush();
  EXPECT_EQ(inferrer.WordCount(inferrer.alphabet()->Find("b")), count);
}

// --- SAX lexer surface ----------------------------------------------------

// Element versions: the serve daemon's QUERY re-learns an element only
// when its version moved, so every write must move it — also the ones
// the fold makes through its pointer cache — and nothing else may.
TEST(SummaryVersions, EveryWriterStampsAndOnlyWritersStamp) {
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  const SummaryStore& store = inferrer.summaries();
  ASSERT_TRUE(folder.AddXml("<a><b/><c>t</c></a>").ok());
  folder.Flush();
  const Symbol a = inferrer.alphabet()->Find("a");
  const Symbol b = inferrer.alphabet()->Find("b");
  const Symbol c = inferrer.alphabet()->Find("c");
  EXPECT_EQ(store.version(inferrer.alphabet()->size()), 0u);
  const uint64_t a0 = store.version(a);
  const uint64_t b0 = store.version(b);
  const uint64_t c0 = store.version(c);
  EXPECT_GT(a0, 0u);

  // The commit writes occurrence counts while the words still wait in
  // the dedup cache; the flush then folds them: both stamp.
  ASSERT_TRUE(folder.AddXml("<a><b/><b/></a>").ok());
  const uint64_t a1 = store.version(a);
  const uint64_t b1 = store.version(b);
  EXPECT_GT(a1, a0);
  EXPECT_GT(b1, b0);
  EXPECT_EQ(store.version(c), c0);
  folder.Flush();
  EXPECT_GT(store.version(a), a1);
  EXPECT_GT(store.version(b), b1);
  EXPECT_EQ(store.version(c), c0);

  // A rejected document and a read stamp nothing.
  const uint64_t a2 = store.version(a);
  EXPECT_FALSE(folder.AddXml("<a><c>u</c><b>").ok());
  folder.Flush();
  ASSERT_TRUE(inferrer.InferDtd().ok());
  EXPECT_EQ(store.version(a), a2);
  EXPECT_EQ(store.version(c), c0);

  // The store's own writers: MergeFrom and Load stamp what they touch.
  DtdInferrer other;
  ASSERT_TRUE(other.AddXml("<a><c>v</c></a>").ok());
  inferrer.MergeFrom(other);
  EXPECT_GT(store.version(c), c0);
  const uint64_t b2 = store.version(b);
  ASSERT_TRUE(inferrer.LoadState(other.SaveState()).ok());
  EXPECT_GT(store.version(a), a2);
  EXPECT_EQ(store.version(b), b2);
}

TEST(SaxLexer, EmitsDecodedTextAndAttributes) {
  SaxLexer lexer("<a x=\"1 &amp; 2\" y='&#65;' z>T &lt; U</a>");
  Result<SaxEvent> start = lexer.Next();
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start->kind, SaxEventKind::kStartElement);
  EXPECT_EQ(start->name, "a");
  ASSERT_EQ(lexer.attributes().size(), 3u);
  EXPECT_EQ(lexer.attributes()[0].key, "x");
  EXPECT_EQ(lexer.attributes()[0].value, "1 & 2");
  EXPECT_EQ(lexer.attributes()[1].value, "A");
  EXPECT_EQ(lexer.attributes()[2].key, "z");
  EXPECT_EQ(lexer.attributes()[2].value, "");
  Result<SaxEvent> text = lexer.Next();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->kind, SaxEventKind::kText);
  EXPECT_EQ(text->text, "T < U");
  Result<SaxEvent> end = lexer.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->kind, SaxEventKind::kEndElement);
  EXPECT_EQ(end->name, "a");
  EXPECT_EQ(lexer.Next()->kind, SaxEventKind::kEof);
}

TEST(SaxLexer, SkipsCommentsPIsAndWhitespaceRuns) {
  SaxLexer lexer("<a>\n  <!-- c --> <?pi?> <![CDATA[ ]]></a>");
  EXPECT_EQ(lexer.Next()->kind, SaxEventKind::kStartElement);
  EXPECT_EQ(lexer.Next()->kind, SaxEventKind::kEndElement);
  EXPECT_EQ(lexer.Next()->kind, SaxEventKind::kEof);
}

}  // namespace
}  // namespace condtd
