// Differential tests for the fold path: the streaming fold's flat
// open-addressing word cache (FlatWordCache + incremental WordHash)
// against the reference fold in src/check/ (one word at a time, no
// cache), and the dense fold kernels against the generic map-based
// paths they shortcut.
//
// The load-bearing assertions compare SaveState text, not just the
// inferred DTD — SaveState exposes SOA state insertion order, every
// support count and the retained samples, so a fold-order or rollback
// bug shows up even when the rewritten DTD happens to coincide.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "automaton/soa.h"
#include "automaton/two_t_inf.h"
#include "base/fold_scratch.h"
#include "base/rng.h"
#include "base/strings.h"
#include "check/oracles.h"
#include "check/reference_fold.h"
#include "crx/crx.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "infer/word_cache.h"

namespace condtd {
namespace {

// --- FlatWordCache unit behavior ------------------------------------------

TEST(FlatWordCache, UpsertInsertsThenHits) {
  FlatWordCache cache;
  Symbol word[] = {1, 2, 3};
  uint64_t hash = WordHash::Mix(7, word, 3);
  FlatWordCache::Upserted first = cache.Upsert(hash, 7, word, 3);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(cache.entry(first.index).count, 0);
  ++cache.entry(first.index).count;

  FlatWordCache::Upserted again = cache.Upsert(hash, 7, word, 3);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.index, first.index);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FlatWordCache, SameWordDifferentElementIsDistinct) {
  FlatWordCache cache;
  Symbol word[] = {4, 5};
  FlatWordCache::Upserted a =
      cache.Upsert(WordHash::Mix(1, word, 2), 1, word, 2);
  FlatWordCache::Upserted b =
      cache.Upsert(WordHash::Mix(2, word, 2), 2, word, 2);
  EXPECT_TRUE(a.inserted);
  EXPECT_TRUE(b.inserted);
  EXPECT_NE(a.index, b.index);
}

TEST(FlatWordCache, EmptyWordKeysWork) {
  FlatWordCache cache;
  FlatWordCache::Upserted a =
      cache.Upsert(WordHash::Mix(3, nullptr, 0), 3, nullptr, 0);
  FlatWordCache::Upserted b =
      cache.Upsert(WordHash::Mix(3, nullptr, 0), 3, nullptr, 0);
  EXPECT_TRUE(a.inserted);
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(cache.entry(a.index).length, 0u);
}

TEST(FlatWordCache, GrowthKeepsIndicesCountsAndInsertionOrder) {
  // Push well past the initial 1024-slot table so Grow() runs several
  // times; entry indices (what the rollback journal stores) and counts
  // must survive, and entries() must stay in insertion order.
  FlatWordCache cache;
  constexpr int kWords = 5000;
  std::vector<uint32_t> indices;
  for (int i = 0; i < kWords; ++i) {
    Symbol word[] = {static_cast<Symbol>(i), static_cast<Symbol>(i / 3)};
    FlatWordCache::Upserted result =
        cache.Upsert(WordHash::Mix(9, word, 2), 9, word, 2);
    ASSERT_TRUE(result.inserted);
    cache.entry(result.index).count = i + 1;
    indices.push_back(result.index);
  }
  ASSERT_EQ(cache.size(), static_cast<size_t>(kWords));
  for (int i = 0; i < kWords; ++i) {
    const FlatWordCache::Entry& entry = cache.entry(indices[i]);
    EXPECT_EQ(entry.count, i + 1);
    ASSERT_EQ(entry.length, 2u);
    EXPECT_EQ(entry.word[0], static_cast<Symbol>(i));
    // Insertion order == index order (append-only entry vector).
    EXPECT_EQ(indices[i], static_cast<uint32_t>(i));
  }
  // Every key still findable after all the growth.
  for (int i = 0; i < kWords; i += 97) {
    Symbol word[] = {static_cast<Symbol>(i), static_cast<Symbol>(i / 3)};
    FlatWordCache::Upserted result =
        cache.Upsert(WordHash::Mix(9, word, 2), 9, word, 2);
    EXPECT_FALSE(result.inserted);
    EXPECT_EQ(result.index, static_cast<uint32_t>(i));
  }
}

TEST(FlatWordCache, ClearRewindsAndReuses) {
  FlatWordCache cache;
  Symbol word[] = {1, 2, 3, 4, 5, 6, 7, 8};
  cache.Upsert(WordHash::Mix(1, word, 8), 1, word, 8);
  size_t resident_before = cache.bytes_resident();
  EXPECT_GT(resident_before, 0u);
  cache.Clear();
  EXPECT_TRUE(cache.empty());
  FlatWordCache::Upserted again =
      cache.Upsert(WordHash::Mix(1, word, 8), 1, word, 8);
  EXPECT_TRUE(again.inserted);  // cleared, so it is a fresh insert
  EXPECT_EQ(again.index, 0u);
}

TEST(FlatWordCache, ProbeStepsAccumulate) {
  FlatWordCache cache;
  Symbol word[] = {1};
  cache.Upsert(WordHash::Mix(1, word, 1), 1, word, 1);
  int64_t after_one = cache.probe_steps();
  EXPECT_GE(after_one, 1);
  cache.Upsert(WordHash::Mix(1, word, 1), 1, word, 1);
  EXPECT_GT(cache.probe_steps(), after_one - 1);
}

// --- incremental hash ------------------------------------------------------

TEST(WordHashTest, IncrementalStepsEqualWholeKeyMix) {
  Rng rng(20060912);
  for (int trial = 0; trial < 200; ++trial) {
    Symbol element = static_cast<Symbol>(rng.NextBelow(64));
    size_t length = rng.NextBelow(32);
    std::vector<Symbol> word;
    uint64_t h = WordHash::Seed(element);
    for (size_t i = 0; i < length; ++i) {
      word.push_back(static_cast<Symbol>(rng.NextBelow(10000)));
      h = WordHash::Step(h, word.back());
    }
    EXPECT_EQ(h, WordHash::Mix(element, word.data(), word.size()));
  }
}

// --- dense fold kernels vs the generic paths -------------------------------

/// Folds `word` and a copy shifted out of the dense-ID window, then
/// checks the two SOAs are isomorphic under the shift — the dense flat-
/// array kernel and the generic path must build the same automaton.
void ExpectFoldMatchesShifted(const Word& word, int multiplicity) {
  constexpr Symbol kShift = kDenseFoldWindow + 17;
  Word shifted;
  for (Symbol s : word) shifted.push_back(s + kShift);

  Soa dense;
  Fold2T(word, &dense, multiplicity);
  Soa generic;
  Fold2T(shifted, &generic, multiplicity);

  ASSERT_EQ(dense.NumStates(), generic.NumStates());
  EXPECT_EQ(dense.empty_support(), generic.empty_support());
  for (int q = 0; q < dense.NumStates(); ++q) {
    int p = generic.StateOf(dense.LabelOf(q) + kShift);
    ASSERT_GE(p, 0);
    EXPECT_EQ(dense.StateSupport(q), generic.StateSupport(p));
    EXPECT_EQ(dense.InitialSupport(q), generic.InitialSupport(p));
    EXPECT_EQ(dense.FinalSupport(q), generic.FinalSupport(p));
    for (int to : dense.Successors(q)) {
      int to_p = generic.StateOf(dense.LabelOf(to) + kShift);
      EXPECT_EQ(dense.EdgeSupport(q, to), generic.EdgeSupport(p, to_p));
    }
  }

  CrxState dense_crx;
  dense_crx.AddWord(word, multiplicity);
  CrxState generic_crx;
  generic_crx.AddWord(shifted, multiplicity);
  EXPECT_EQ(dense_crx.num_words(), generic_crx.num_words());
  EXPECT_EQ(dense_crx.empty_count(), generic_crx.empty_count());
  // →_W is the SOA's edge set, compared above; the histograms must
  // agree under the shift.
  std::vector<std::pair<CrxState::Histogram, int64_t>> shifted_histograms =
      dense_crx.SortedHistograms();
  for (auto& [histogram, count] : shifted_histograms) {
    for (auto& [symbol, occurrences] : histogram) symbol += kShift;
  }
  EXPECT_EQ(shifted_histograms, generic_crx.SortedHistograms());
}

TEST(DenseFoldKernel, MatchesGenericPathAcrossWordShapes) {
  Rng rng(42);
  // Short words take the straight-line path, length >= kDenseWordMin the
  // aggregated dense kernel; both must agree with the out-of-window
  // generic path. Repeats inside a word exercise the per-state count and
  // distinct-pair aggregation.
  std::vector<Word> words = {
      {},
      {3},
      {1, 2, 3},
      {5, 5, 5, 5, 5, 5, 5, 5, 5},
      {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2},
  };
  for (int trial = 0; trial < 40; ++trial) {
    Word word;
    size_t length = rng.NextBelow(64);
    for (size_t i = 0; i < length; ++i) {
      word.push_back(static_cast<Symbol>(rng.NextBelow(12)));
    }
    words.push_back(std::move(word));
  }
  for (const Word& word : words) {
    for (int multiplicity : {1, 3}) {
      ExpectFoldMatchesShifted(word, multiplicity);
    }
  }
}

// --- flat cache vs the reference fold, end to end --------------------------

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

struct FoldRun {
  std::string dtd;
  std::string state;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t flushes = 0;
};

/// Folds `documents` through one streaming configuration; `broken`
/// documents (if any) are interleaved after each clean one and must be
/// rejected.
FoldRun RunFold(const std::vector<std::string>& documents,
                const std::vector<std::string>& broken,
                StreamingFolder::Options folder_options) {
  FoldRun run;
  DtdInferrer inferrer;
  {
    StreamingFolder folder(&inferrer, folder_options);
    for (size_t d = 0; d < documents.size(); ++d) {
      EXPECT_TRUE(folder.AddXml(documents[d]).ok());
      if (d < broken.size() && !broken[d].empty()) {
        EXPECT_FALSE(folder.AddXml(broken[d]).ok());
      }
    }
    run.hits = folder.dedup_hits();
    run.misses = folder.dedup_misses();
    run.flushes = folder.dedup_flushes();
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok());
  if (dtd.ok()) run.dtd = WriteDtd(dtd.value(), *inferrer.alphabet());
  run.state = inferrer.SaveState();
  return run;
}

/// The reference fold's DTD and SaveState over `documents`.
FoldRun RunReferenceFold(const std::vector<std::string>& documents) {
  FoldRun run;
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    EXPECT_TRUE(ReferenceFoldXml(doc, &inferrer).ok());
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok());
  if (dtd.ok()) run.dtd = WriteDtd(dtd.value(), *inferrer.alphabet());
  run.state = inferrer.SaveState();
  return run;
}

TEST(DedupDifferential, MatchesReferenceFold) {
  std::vector<std::string> documents = GenerateCorpus(40, 123);
  FoldRun flat_run = RunFold(documents, {}, {});
  FoldRun reference = RunReferenceFold(documents);
  EXPECT_EQ(flat_run.dtd, reference.dtd);
  EXPECT_EQ(flat_run.state, reference.state);
  EXPECT_GT(flat_run.hits, 0);
}

TEST(DedupDifferential, RejectedDocumentsLeaveNoResidue) {
  std::vector<std::string> documents = GenerateCorpus(20, 456);
  std::vector<std::string> broken;
  for (size_t d = 0; d < documents.size(); ++d) {
    // Truncation of the document folded right before it, mid-way with a
    // dangling '<' — always a parse error, deep enough that completed
    // elements have hit the cache, and interning no names the clean
    // document did not already intern (a new name would legitimately
    // shift the symbol ids; see CheckIngestionEquivalence).
    broken.push_back(d % 2 == 0 ? documents[d].substr(
                                      0, documents[d].size() / 2) + "<"
                                : std::string());
  }
  FoldRun with_broken = RunFold(documents, broken, {});
  FoldRun clean_only = RunFold(documents, {}, {});
  EXPECT_EQ(with_broken.dtd, clean_only.dtd);
  EXPECT_EQ(with_broken.state, clean_only.state);
}

TEST(DedupDifferential, AbortDocumentMatchesParseFailure) {
  std::vector<std::string> documents = GenerateCorpus(10, 789);
  DtdInferrer aborted;
  {
    StreamingFolder folder(&aborted);
    ASSERT_TRUE(folder.AddXml(documents[0]).ok());
    // Feed a clean document, then abort from the outside the way the
    // parallel worker pool does after containing an exception.
    ASSERT_TRUE(folder.AddXml(documents[1]).ok());
    folder.AbortDocument();  // no document in flight: must be a no-op
    for (size_t d = 2; d < documents.size(); ++d) {
      ASSERT_TRUE(folder.AddXml(documents[d]).ok());
    }
  }

  DtdInferrer plain;
  {
    StreamingFolder folder(&plain);
    for (const std::string& doc : documents) {
      ASSERT_TRUE(folder.AddXml(doc).ok());
    }
  }
  EXPECT_EQ(aborted.SaveState(), plain.SaveState());
}

TEST(DedupDifferential, EarlyFlushesPreserveTheResult) {
  std::vector<std::string> documents = GenerateCorpus(30, 31337);
  StreamingFolder::Options tiny;
  tiny.max_distinct_words = 4;  // force a flush nearly every document
  FoldRun tiny_run = RunFold(documents, {}, tiny);
  FoldRun big_run = RunFold(documents, {}, {});
  EXPECT_GT(tiny_run.flushes, big_run.flushes);
  EXPECT_EQ(tiny_run.dtd, big_run.dtd);
  // Note: SaveState is NOT compared here — early flushes change fold
  // grouping, which the weighted-fold algebra guarantees only up to the
  // inferred DTD, not SOA state numbering.
}

/// A document with more distinct element names than the dense-ID window
/// pushes symbols onto the generic (map-based) Soa and CRX paths inside
/// a single corpus; the streaming fold must still match the reference
/// fold bit for bit.
TEST(DedupDifferential, SymbolsBeyondTheDenseWindowStayIdentical) {
  std::string doc = "<r>";
  for (int i = 0; i < kDenseFoldWindow + 200; ++i) {
    std::string name = Numbered("e", i);
    doc += "<" + name + "/><" + name + "/>";
  }
  doc += "</r>";
  // Fold only (no InferDtd — learning a 4000+-state content model is
  // not what this test measures); SaveState captures the full summary.
  DtdInferrer streaming;
  {
    StreamingFolder folder(&streaming);
    EXPECT_TRUE(folder.AddXml(doc).ok());
    EXPECT_TRUE(folder.AddXml(doc).ok());
  }
  DtdInferrer reference;
  EXPECT_TRUE(ReferenceFoldXml(doc, &reference).ok());
  EXPECT_TRUE(ReferenceFoldXml(doc, &reference).ok());
  EXPECT_EQ(streaming.SaveState(), reference.SaveState());
  // In memory too: the sorted histograms, and →_W through the SOAs.
  OracleResult same = CheckSummaryEquivalence(
      streaming.summaries(), reference.summaries(), *streaming.alphabet());
  EXPECT_TRUE(same.passed) << same.detail;
}

}  // namespace
}  // namespace condtd
