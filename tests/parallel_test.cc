#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/ws_deque.h"
#include "crx/crx.h"
#include "automaton/soa.h"
#include "automaton/two_t_inf.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::WordsFromStrings;

// --- merge algebra --------------------------------------------------------

Soa SoaOf(const std::vector<std::string>& strings, Alphabet* alphabet) {
  return Infer2T(WordsFromStrings(strings, alphabet));
}

/// Structural equality plus every support count (Soa::Equals ignores
/// supports on purpose; the merge tests must not).
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

TEST(SoaMerge, MatchesSequentialFold) {
  Alphabet alphabet;
  std::vector<std::string> part1 = {"abc", "", "ab"};
  std::vector<std::string> part2 = {"cba", "abc", "b"};
  Soa merged = SoaOf(part1, &alphabet);
  merged.MergeFrom(SoaOf(part2, &alphabet));
  std::vector<std::string> all = part1;
  all.insert(all.end(), part2.begin(), part2.end());
  ExpectSoaIdentical(merged, SoaOf(all, &alphabet));
}

TEST(SoaMerge, AssociativeAndCommutative) {
  Alphabet alphabet;
  Soa a = SoaOf({"ab", "ba"}, &alphabet);
  Soa b = SoaOf({"bc", ""}, &alphabet);
  Soa c = SoaOf({"ca", "abc"}, &alphabet);

  // (a ⊕ b) ⊕ c
  Soa left = a;
  left.MergeFrom(b);
  left.MergeFrom(c);
  // a ⊕ (b ⊕ c)
  Soa bc = b;
  bc.MergeFrom(c);
  Soa right = a;
  right.MergeFrom(bc);
  ExpectSoaIdentical(left, right);

  // b ⊕ a (commutativity, up to state numbering)
  Soa ba = b;
  ba.MergeFrom(a);
  Soa ab = a;
  ab.MergeFrom(b);
  ExpectSoaIdentical(ab, ba);
}

/// CRX's histogram summary beside the SOA folded from the same words,
/// which carries →_W — the pair an ElementSummary keeps.
struct CrxSummary {
  CrxState crx;
  Soa soa;

  void MergeFrom(const CrxSummary& other) {
    crx.MergeFrom(other.crx);
    soa.MergeFrom(other.soa);
  }
};

CrxSummary CrxOf(const std::vector<std::string>& strings,
                 Alphabet* alphabet) {
  std::vector<Word> words = WordsFromStrings(strings, alphabet);
  CrxSummary summary;
  summary.crx.AddWords(words);
  summary.soa = Infer2T(words);
  return summary;
}

void ExpectCrxIdentical(const CrxSummary& a, const CrxSummary& b) {
  EXPECT_TRUE(a.soa.Equals(b.soa));
  EXPECT_EQ(a.crx.SortedHistograms(), b.crx.SortedHistograms());
  EXPECT_EQ(a.crx.empty_count(), b.crx.empty_count());
  EXPECT_EQ(a.crx.num_words(), b.crx.num_words());
}

TEST(CrxMerge, MatchesSequentialFold) {
  Alphabet alphabet;
  std::vector<std::string> part1 = {"aab", "", "ba"};
  std::vector<std::string> part2 = {"ab", "aab", "c"};
  CrxSummary merged = CrxOf(part1, &alphabet);
  merged.MergeFrom(CrxOf(part2, &alphabet));
  std::vector<std::string> all = part1;
  all.insert(all.end(), part2.begin(), part2.end());
  ExpectCrxIdentical(merged, CrxOf(all, &alphabet));
}

TEST(CrxMerge, AssociativeAndCommutative) {
  Alphabet alphabet;
  CrxSummary a = CrxOf({"ab", "aab", ""}, &alphabet);
  CrxSummary b = CrxOf({"bc", "b"}, &alphabet);
  CrxSummary c = CrxOf({"ca", "", "abc"}, &alphabet);

  CrxSummary left = a;
  left.MergeFrom(b);
  left.MergeFrom(c);
  CrxSummary bc = b;
  bc.MergeFrom(c);
  CrxSummary right = a;
  right.MergeFrom(bc);
  ExpectCrxIdentical(left, right);

  CrxSummary ab = a;
  ab.MergeFrom(b);
  CrxSummary ba = b;
  ba.MergeFrom(a);
  ExpectCrxIdentical(ab, ba);
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

std::string SequentialDtd(const std::vector<std::string>& documents) {
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    Status status = inferrer.AddXml(doc);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

IngestEngine::Options JobsOptions(int jobs, InferenceOptions inference = {}) {
  IngestEngine::Options options;
  options.inference = std::move(inference);
  options.jobs = jobs;
  return options;
}

/// Finishes `engine` and renders the DTD of its merged inferrer.
std::string EngineDtd(IngestEngine* engine) {
  Status status = engine->Finish();
  EXPECT_TRUE(status.ok()) << status.ToString();
  Result<Dtd> dtd = engine->inferrer().InferDtd(engine->infer_threads());
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *engine->inferrer().alphabet());
}

std::string ParallelDtd(const std::vector<std::string>& documents,
                        int num_threads) {
  IngestEngine engine(JobsOptions(num_threads));
  for (const std::string& doc : documents) engine.AddXml(doc);
  return EngineDtd(&engine);
}

int64_t FeedWordCount(IngestEngine* engine) {
  DtdInferrer& merged = engine->inferrer();
  return merged.WordCount(merged.alphabet()->Find("feed"));
}

// --- determinism ----------------------------------------------------------

TEST(ParallelInferrer, ShardedIngestionIsByteIdenticalToSequential) {
  std::vector<std::string> documents = GenerateCorpus(240, 20060912);
  std::string expected = SequentialDtd(documents);
  for (int shards : {1, 2, 7}) {
    EXPECT_EQ(ParallelDtd(documents, shards), expected)
        << "shard count " << shards;
  }
}

TEST(ParallelInferrer, StateAndXsdAreByteIdenticalAtAnyJobCount) {
  // Beyond the DTD: the saved state and the XSD's datatypes too. The
  // second corpus's `v` values are integers for 100 documents and words
  // after, so a type taken from the first values would say xs:integer.
  std::vector<std::string> numbers_then_words;
  for (int i = 0; i < 200; ++i) {
    numbers_then_words.push_back(
        "<r><v>" + (i < 100 ? std::to_string(i) : "word" + std::to_string(i)) +
        "</v></r>");
  }
  for (const std::vector<std::string>& documents :
       {GenerateCorpus(120, 8128), numbers_then_words}) {
    IngestEngine sequential(JobsOptions(1));
    for (const std::string& doc : documents) sequential.AddXml(doc);
    ASSERT_TRUE(sequential.Finish().ok());
    const std::string state = sequential.inferrer().SaveState();
    const std::string xsd = sequential.inferrer().InferXsd().value();
    for (int jobs : {2, 3, 7}) {
      for (int batch : {1, 8}) {
        InferenceOptions options;
        options.batch_docs = batch;
        IngestEngine engine(JobsOptions(jobs, options));
        for (const std::string& doc : documents) engine.AddXml(doc);
        ASSERT_TRUE(engine.Finish().ok());
        EXPECT_EQ(engine.inferrer().SaveState(), state)
            << "jobs " << jobs << " batch " << batch;
        EXPECT_EQ(engine.inferrer().InferXsd(jobs).value(), xsd)
            << "jobs " << jobs << " batch " << batch;
      }
    }
    // Save, load, save: the loader keeps the canonical order.
    DtdInferrer restored;
    ASSERT_TRUE(restored.LoadState(state).ok());
    EXPECT_EQ(restored.SaveState(), state);
    EXPECT_EQ(restored.InferXsd().value(), xsd);
  }
  DtdInferrer words;
  for (const std::string& doc : numbers_then_words) {
    ASSERT_TRUE(words.AddXml(doc).ok());
  }
  const std::string xsd = words.InferXsd().value();
  EXPECT_NE(xsd.find("<xs:element name=\"v\" type=\"xs:string\"/>"),
            std::string::npos)
      << xsd;
}

TEST(ParallelInferrer, DeterministicForAnyDocumentOrder) {
  std::vector<std::string> documents = GenerateCorpus(180, 4711);
  // A permuted corpus must again match its own sequential run (the
  // contract is parallel == sequential per corpus order, for any order).
  Rng rng(99);
  rng.Shuffle(&documents);
  std::string expected = SequentialDtd(documents);
  for (int shards : {2, 7}) {
    EXPECT_EQ(ParallelDtd(documents, shards), expected)
        << "shard count " << shards;
  }
}

TEST(ParallelInferrer, PerElementInferenceThreadsDoNotChangeOutput) {
  std::vector<std::string> documents = GenerateCorpus(120, 31337);
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    ASSERT_TRUE(inferrer.AddXml(doc).ok());
  }
  Result<Dtd> sequential = inferrer.InferDtd();
  Result<Dtd> threaded = inferrer.InferDtd(4);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(WriteDtd(sequential.value(), *inferrer.alphabet()),
            WriteDtd(threaded.value(), *inferrer.alphabet()));
}

TEST(ParallelInferrer, ReportsParseErrorsByDocumentIndex) {
  std::vector<std::string> documents = GenerateCorpus(20, 5);
  documents[7] = "<broken><unclosed></broken>";
  documents[13] = "not xml at all";
  for (int jobs : {1, 3}) {
    IngestEngine engine(JobsOptions(jobs));
    for (const std::string& doc : documents) engine.AddXml(doc);
    Status status = engine.Finish();
    EXPECT_FALSE(status.ok());
    ASSERT_EQ(engine.errors().size(), 2u) << "jobs " << jobs;
    EXPECT_EQ(engine.errors()[0].doc_index, 7);
    EXPECT_EQ(engine.errors()[1].doc_index, 13);
    // The merged state still holds every clean document.
    EXPECT_EQ(FeedWordCount(&engine), 18) << "jobs " << jobs;
  }
}

TEST(ParallelInferrer, AggregatesAllDocumentErrors) {
  std::vector<std::string> documents = GenerateCorpus(12, 9);
  documents[2] = "<broken><unclosed></broken>";
  documents[5] = "not xml at all";
  documents[9] = "<feed><entry></feed>";
  IngestEngine engine(JobsOptions(4));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 3u);
  EXPECT_EQ(engine.errors()[0].doc_index, 2);
  EXPECT_EQ(engine.errors()[1].doc_index, 5);
  EXPECT_EQ(engine.errors()[2].doc_index, 9);
  // The aggregate status names the failure count and the first failing
  // document, not just the front error's message.
  EXPECT_NE(status.message().find("3 documents failed"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("document 2"), std::string::npos)
      << status.ToString();
  // Finish is idempotent and keeps reporting the same aggregate.
  EXPECT_EQ(engine.Finish().message(), status.message());
}

TEST(ParallelInferrer, SingleFailureKeepsThatDocumentsStatus) {
  std::vector<std::string> documents = GenerateCorpus(8, 10);
  documents[3] = "not xml at all";
  IngestEngine engine(JobsOptions(3));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 1u);
  EXPECT_EQ(status.message(), engine.errors().front().status.message());
  EXPECT_EQ(status.message().find("documents failed"), std::string::npos)
      << status.ToString();
}

/// Installs a throwing ingest fault for the test's duration; the
/// destructor uninstalls it even when an assertion fails first.
struct ScopedIngestFault {
  explicit ScopedIngestFault(IngestEngine::IngestFault fault) {
    IngestEngine::SetIngestFaultForTest(fault);
  }
  ~ScopedIngestFault() { IngestEngine::SetIngestFaultForTest(nullptr); }
};

TEST(ParallelInferrer, SurvivesWorkerExceptions) {
  std::vector<std::string> documents = GenerateCorpus(20, 77);
  // Without the containment these would escape a worker's thread entry
  // point and std::terminate the whole process, or escape the caller at
  // one job.
  ScopedIngestFault fault(+[](int64_t doc_index) {
    if (doc_index == 5) throw std::bad_alloc();
    if (doc_index == 11) throw std::length_error("simulated oversize");
  });
  for (int jobs : {1, 3}) {
    IngestEngine engine(JobsOptions(jobs));
    for (const std::string& doc : documents) engine.AddXml(doc);
    Status status = engine.Finish();
    EXPECT_FALSE(status.ok());
    ASSERT_EQ(engine.errors().size(), 2u) << "jobs " << jobs;
    EXPECT_EQ(engine.errors()[0].doc_index, 5);
    EXPECT_EQ(engine.errors()[1].doc_index, 11);
    EXPECT_EQ(engine.errors()[0].status.code(), StatusCode::kInternal);
    EXPECT_NE(engine.errors()[1].status.message().find("simulated oversize"),
              std::string::npos)
        << engine.errors()[1].status.ToString();
    // Every other document folded; the failed ones contributed nothing.
    EXPECT_EQ(FeedWordCount(&engine), 18) << "jobs " << jobs;
  }
}

TEST(ParallelInferrer, WorkerExceptionsDoNotPerturbSurvivingDocuments) {
  std::vector<std::string> documents = GenerateCorpus(60, 4242);
  // Expected result: a sequential run over the corpus minus the faulted
  // documents.
  std::vector<std::string> survivors;
  for (size_t i = 0; i < documents.size(); ++i) {
    if (i % 10 != 7) survivors.push_back(documents[i]);
  }
  std::string expected = SequentialDtd(survivors);
  ScopedIngestFault fault(+[](int64_t doc_index) {
    if (doc_index % 10 == 7) throw std::runtime_error("injected");
  });
  for (int shards : {1, 2, 5}) {
    IngestEngine engine(JobsOptions(shards));
    for (const std::string& doc : documents) engine.AddXml(doc);
    EXPECT_FALSE(engine.Finish().ok());
    EXPECT_EQ(engine.errors().size(), 6u);
    Result<Dtd> dtd = engine.inferrer().InferDtd();
    ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
    EXPECT_EQ(WriteDtd(dtd.value(), *engine.inferrer().alphabet()), expected)
        << "shard count " << shards;
  }
}

TEST(ParallelInferrer, LoadStateOnlyPrecedesTheFirstDocument) {
  std::vector<std::string> documents = GenerateCorpus(40, 808);
  const std::vector<std::string> prefix(documents.begin(),
                                        documents.begin() + 15);
  const std::vector<std::string> rest(documents.begin() + 15,
                                      documents.end());
  DtdInferrer saved;
  for (const std::string& doc : prefix) ASSERT_TRUE(saved.AddXml(doc).ok());
  const std::string state = saved.SaveState();
  const std::string expected = SequentialDtd(documents);
  for (int jobs : {1, 3}) {
    IngestEngine engine(JobsOptions(jobs));
    ASSERT_TRUE(engine.LoadState(state).ok());
    for (const std::string& doc : rest) engine.AddXml(doc);
    EXPECT_EQ(engine.LoadState(state).code(),
              StatusCode::kFailedPrecondition)
        << "jobs " << jobs;
    EXPECT_EQ(EngineDtd(&engine), expected) << "jobs " << jobs;
  }
}

// --- DtdInferrer::MergeFrom ----------------------------------------------

TEST(InferrerMerge, ContiguousShardsMergedInOrderMatchSequential) {
  std::vector<std::string> documents = GenerateCorpus(150, 2222);
  std::string expected = SequentialDtd(documents);

  // Three shard inferrers over contiguous corpus blocks, merged in block
  // order: interning replays in document order, so the result is
  // byte-identical to the sequential run.
  DtdInferrer merged;
  for (int block = 0; block < 3; ++block) {
    DtdInferrer shard;
    for (size_t i = block * 50; i < (block + 1) * 50u; ++i) {
      ASSERT_TRUE(shard.AddXml(documents[i]).ok());
    }
    merged.MergeFrom(shard);
  }
  Result<Dtd> dtd = merged.InferDtd();
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(WriteDtd(dtd.value(), *merged.alphabet()), expected);
}

TEST(InferrerMerge, MergeMatchesLoadStateMerge) {
  // MergeFrom must agree with the text-format merge path (LoadState
  // into an empty, then a non-empty inferrer), which the persistence
  // tests pin.
  std::vector<std::string> documents = GenerateCorpus(80, 909);
  const std::vector<std::string> first(documents.begin(),
                                       documents.begin() + 40);
  const std::vector<std::string> second(documents.begin() + 40,
                                        documents.end());
  using testing_util::kSoaOrderDocs;
  using testing_util::kTwoRootDocs;
  const std::vector<std::vector<std::string>> shards[] = {
      {first, second},
      {kTwoRootDocs, kSoaOrderDocs},
      {kSoaOrderDocs, kTwoRootDocs},
  };
  for (const std::vector<std::vector<std::string>>& pair : shards) {
    DtdInferrer a;
    DtdInferrer b;
    for (const std::string& doc : pair[0]) ASSERT_TRUE(a.AddXml(doc).ok());
    for (const std::string& doc : pair[1]) ASSERT_TRUE(b.AddXml(doc).ok());
    DtdInferrer via_merge;
    via_merge.MergeFrom(a);
    via_merge.MergeFrom(b);
    DtdInferrer via_state;
    ASSERT_TRUE(via_state.LoadState(a.SaveState()).ok());
    ASSERT_TRUE(via_state.LoadState(b.SaveState()).ok());
    EXPECT_EQ(via_merge.SaveState(), via_state.SaveState());
  }
}

// --- batch scheduler ------------------------------------------------------

std::string BatchedDtd(const std::vector<std::string>& documents,
                       int num_threads, int batch_docs, bool borrowed) {
  InferenceOptions options;
  options.batch_docs = batch_docs;
  IngestEngine engine(JobsOptions(num_threads, options));
  for (const std::string& doc : documents) {
    if (borrowed) {
      engine.AddBorrowedXml(doc);
    } else {
      engine.AddXml(doc);
    }
  }
  return EngineDtd(&engine);
}

TEST(BatchScheduler, BatchSizeNeverChangesTheDtd) {
  // The batch size only decides hand-off granularity; any value must
  // reproduce the sequential DTD byte for byte at any thread count,
  // including batch=1 (per-document dispatch, the old scheduler's
  // behavior) and a batch larger than the whole corpus (single batch,
  // zero stealing opportunities).
  std::vector<std::string> documents = GenerateCorpus(120, 60221023);
  std::string expected = SequentialDtd(documents);
  for (int jobs : {1, 2, 7}) {
    for (int batch : {1, 32, 1000}) {
      EXPECT_EQ(BatchedDtd(documents, jobs, batch, /*borrowed=*/false),
                expected)
          << "jobs " << jobs << " batch " << batch;
    }
  }
}

TEST(BatchScheduler, BorrowedSubmissionMatchesCopiedSubmission) {
  // AddBorrowedXml skips the arena copy; the result must be identical.
  std::vector<std::string> documents = GenerateCorpus(90, 17);
  std::string copied = BatchedDtd(documents, 3, 8, /*borrowed=*/false);
  std::string borrowed = BatchedDtd(documents, 3, 8, /*borrowed=*/true);
  EXPECT_EQ(copied, borrowed);
}

TEST(BatchScheduler, ErrorIndicesSurviveBatching) {
  // Document indices in error reports are assigned at submission, so
  // they must be stable however documents land in batches and shards.
  std::vector<std::string> documents = GenerateCorpus(40, 5);
  documents[7] = "<broken><unclosed></broken>";
  documents[31] = "not xml at all";
  for (int batch : {1, 4, 64}) {
    InferenceOptions options;
    options.batch_docs = batch;
    IngestEngine engine(JobsOptions(3, options));
    for (const std::string& doc : documents) engine.AddXml(doc);
    EXPECT_FALSE(engine.Finish().ok());
    ASSERT_EQ(engine.errors().size(), 2u) << "batch " << batch;
    EXPECT_EQ(engine.errors()[0].doc_index, 7);
    EXPECT_EQ(engine.errors()[1].doc_index, 31);
  }
}

TEST(WorkStealingDequeTest, SingleThreadPushSteal) {
  WorkStealingDeque<int*> deque;
  EXPECT_TRUE(deque.Empty());
  EXPECT_EQ(deque.Steal(), nullptr);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) {
    values[i] = i;
    deque.Push(&values[i]);  // forces several ring growths (initial 64)
  }
  EXPECT_FALSE(deque.Empty());
  for (int i = 0; i < 100; ++i) {
    int* item = deque.Steal();
    ASSERT_NE(item, nullptr);
    EXPECT_EQ(*item, i);  // steals drain FIFO from the top
  }
  EXPECT_TRUE(deque.Empty());
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(WorkStealingDequeTest, ConcurrentThievesClaimEachItemOnce) {
  // One producer, several thieves hammering Steal — under the TSan lane
  // this exercises the acquire/release protocol; everywhere it checks
  // that every pushed item is claimed exactly once.
  constexpr int kItems = 20000;
  constexpr int kThieves = 4;
  WorkStealingDeque<int*> deque;
  std::vector<int> values(kItems);
  std::vector<std::atomic<int>> claimed(kItems);
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<int> total{0};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      for (;;) {
        int* item = deque.Steal();
        if (item == nullptr) {
          if (done.load(std::memory_order_acquire) && deque.Empty()) return;
          std::this_thread::yield();
          continue;
        }
        claimed[item - values.data()].fetch_add(1,
                                                std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    values[i] = i;
    deque.Push(&values[i]);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thief : thieves) thief.join();

  EXPECT_EQ(total.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(claimed[i].load(), 1) << "item " << i;
  }
}

}  // namespace
}  // namespace condtd
