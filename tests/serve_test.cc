// The serve daemon: journal framing and torn-tail replay, crash
// recovery (snapshot + journal), the IngestSession consistency
// contract under concurrent readers and writers, registry hygiene, and
// the wire protocol end-to-end over a real socket.
//
// The load-bearing property throughout is the determinism contract:
// after any crash/replay or reader/writer interleaving, a QUERY answer
// must be byte-identical to a batch run over some prefix of the
// acknowledged document sequence — checked here by precomputing every
// prefix's reference output with the plain sequential engine and
// asserting set membership, which is much stronger than "looks like a
// DTD".

#include <arpa/inet.h>
#include <dirent.h>
#include <ftw.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/file.h"
#include "base/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/corpus.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/session.h"
#include "infer/streaming.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/corpus.h"
#include "serve/journal.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "tests/testing.h"
#include "xml/sax.h"

namespace condtd {
namespace {

int RemoveEntry(const char* path, const struct stat*, int,
                struct FTW*) {
  return ::remove(path);
}

/// Self-cleaning temp dir for corpus data directories.
class TempDir {
 public:
  TempDir() {
    char buffer[] = "/tmp/condtd_serve_test_XXXXXX";
    EXPECT_NE(mkdtemp(buffer), nullptr);
    path_ = buffer;
  }
  ~TempDir() {
    ::nftw(path_.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Distinct per-index documents, so every prefix of the sequence has a
/// distinct inference state.
std::string Doc(int index) {
  std::string xml = "<library>";
  for (int book = 0; book <= index % 5; ++book) {
    xml += "<book><title>t</title>";
    if ((index + book) % 2 == 0) xml += "<author>a</author>";
    xml += "</book>";
  }
  xml += "</library>";
  return xml;
}

/// Doc(0..count) interleaved with the two-root and SOA-order documents
/// of tests/testing.h, so states carry several roots and SOA edges to
/// states saved later.
std::vector<std::string> MixedDocs(int count) {
  std::vector<std::string> extra = testing_util::kTwoRootDocs;
  extra.insert(extra.end(), testing_util::kSoaOrderDocs.begin(),
               testing_util::kSoaOrderDocs.end());
  std::vector<std::string> docs;
  for (int i = 0; i < count; ++i) {
    docs.push_back(Doc(i));
    if (i < static_cast<int>(extra.size())) docs.push_back(extra[i]);
  }
  return docs;
}

/// Reference: the sequential engine's SaveState after folding
/// docs[0..prefix).
std::string PrefixState(const std::vector<std::string>& docs,
                        size_t prefix) {
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(folder.AddXml(docs[i]).ok());
  }
  folder.Flush();
  return inferrer.SaveState();
}

/// Reference: the sequential engine's XSD after folding docs[0..prefix).
std::string PrefixXsd(const std::vector<std::string>& docs, size_t prefix) {
  DtdInferrer inferrer;
  StreamingFolder folder(&inferrer);
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(folder.AddXml(docs[i]).ok());
  }
  folder.Flush();
  Result<std::string> xsd = inferrer.InferXsd();
  EXPECT_TRUE(xsd.ok()) << xsd.status().ToString();
  return xsd.ok() ? *xsd : std::string();
}

/// Sorted directory listing (regular entries only).
std::vector<std::string> ListDir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

/// Reference: the sequential engine's DTD text after folding
/// docs[0..prefix).
std::string PrefixDtd(const std::vector<std::string>& docs, size_t prefix,
                      const InferenceOptions& options = {}) {
  DtdInferrer inferrer(options);
  StreamingFolder folder(&inferrer);
  for (size_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(folder.AddXml(docs[i]).ok());
  }
  folder.Flush();
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

// ---------------------------------------------------------------------
// Journal

TEST(Journal, AppendAndReplayRoundTrip) {
  TempDir dir;
  std::string path = dir.path() + "/journal.log";
  {
    Result<serve::Journal> journal =
        serve::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal->Append(0, "<a/>").ok());
    ASSERT_TRUE(journal->Append(1, "<b>with\nnewlines\n</b>").ok());
    ASSERT_TRUE(journal->Append(2, "").ok());  // empty doc is framed fine
  }
  std::vector<std::pair<int64_t, std::string>> seen;
  Result<serve::Journal::ReplayStats> stats = serve::Journal::Replay(
      path, [&seen](int64_t seq, std::string_view doc) {
        seen.emplace_back(seq, std::string(doc));
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, 3);
  EXPECT_EQ(stats->torn_tail_bytes, 0);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int64_t, std::string>{0, "<a/>"}));
  EXPECT_EQ(seen[1].second, "<b>with\nnewlines\n</b>");
  EXPECT_EQ(seen[2].second, "");
}

TEST(Journal, MissingFileReplaysNothing) {
  TempDir dir;
  Result<serve::Journal::ReplayStats> stats = serve::Journal::Replay(
      dir.path() + "/nope.log",
      [](int64_t, std::string_view) { return Status::OK(); });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, 0);
}

TEST(Journal, TornTailIsDiscarded) {
  TempDir dir;
  std::string path = dir.path() + "/journal.log";
  {
    Result<serve::Journal> journal =
        serve::Journal::Open(path, /*fsync_appends=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(0, "<a/>").ok());
    ASSERT_TRUE(journal->Append(1, "<b/>").ok());
  }
  // A crash mid-append leaves a record whose announced length exceeds
  // the bytes actually on disk.
  Result<std::string> intact = ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  for (const std::string& torn :
       {std::string("doc 2 4000\n<c/"), std::string("doc 2 "),
        std::string("garbage that is not a header\n")}) {
    ASSERT_TRUE(WriteStringToFile(path, *intact + torn).ok());
    int64_t records = 0;
    Result<serve::Journal::ReplayStats> stats = serve::Journal::Replay(
        path, [&records](int64_t, std::string_view) {
          ++records;
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(records, 2) << "torn tail: " << torn;
    EXPECT_EQ(stats->torn_tail_bytes,
              static_cast<int64_t>(torn.size()));
  }
}

// ---------------------------------------------------------------------
// IngestSession: concurrent snapshot consistency (the serve analogue of
// "concurrent SaveState while ingestion is in flight").

TEST(IngestSession, ConcurrentSnapshotsAreAlwaysAPrefixState) {
  std::vector<std::string> docs = MixedDocs(24);

  // Reference states and DTDs for every prefix, computed sequentially.
  std::set<std::string> prefix_states, prefix_dtds;
  for (size_t prefix = 0; prefix <= docs.size(); ++prefix) {
    prefix_states.insert(PrefixState(docs, prefix));
    if (prefix > 0) prefix_dtds.insert(PrefixDtd(docs, prefix));
  }

  IngestSession session{InferenceOptions{}};
  std::vector<std::string> snapshots, dtds;
  std::vector<int64_t> epochs;
  std::thread reader([&session, &snapshots, &dtds, &epochs] {
    for (int i = 0; i < 50; ++i) {
      std::string state;
      int64_t epoch = 0;
      session.Snapshot(&state, &epoch);
      snapshots.push_back(std::move(state));
      epochs.push_back(epoch);
      // The copies a QUERY learns from, every summary changed for a
      // reader that knows none.
      Alphabet names;
      SummaryDelta delta;
      session.SnapshotChanged({}, &names, &delta);
      if (delta.versions.empty()) continue;
      EXPECT_EQ(delta.changed.size(), delta.versions.size());
      DtdInferrer learner;
      std::vector<ElementSchema> schemas;
      for (const auto& [symbol, summary] : delta.changed) {
        schemas.push_back(learner.InferElement(summary, /*xsd=*/false));
      }
      std::vector<ElementSchemaRef> elements;
      for (size_t e = 0; e < schemas.size(); ++e) {
        elements.emplace_back(delta.changed[e].first, &schemas[e]);
      }
      Result<Dtd> dtd = DtdInferrer::AssembleDtd(delta.root, elements);
      ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
      dtds.push_back(WriteDtd(*dtd, names));
    }
  });
  for (const std::string& doc : docs) {
    ASSERT_TRUE(session.Ingest(doc).ok());
  }
  reader.join();

  // Every snapshot taken mid-ingest equals the sequential SaveState of
  // SOME prefix — never a torn intermediate — and every DTD assembled
  // from the copies that prefix's DTD.
  for (const std::string& snapshot : snapshots) {
    EXPECT_TRUE(prefix_states.count(snapshot) > 0)
        << "snapshot is not any prefix state";
  }
  for (const std::string& dtd : dtds) {
    EXPECT_TRUE(prefix_dtds.count(dtd) > 0) << dtd;
  }
  // Epochs are monotone in snapshot order (reader is one thread).
  for (size_t i = 1; i < epochs.size(); ++i) {
    EXPECT_LE(epochs[i - 1], epochs[i]);
  }
  // The final state is the full corpus.
  std::string final_state;
  session.Snapshot(&final_state, nullptr);
  EXPECT_EQ(final_state, PrefixState(docs, docs.size()));
  EXPECT_EQ(session.documents(), static_cast<int64_t>(docs.size()));
}

TEST(IngestSession, FailedDocumentContributesNothing) {
  IngestSession session{InferenceOptions{}};
  ASSERT_TRUE(session.Ingest(Doc(0)).ok());
  std::string before;
  session.Snapshot(&before, nullptr);
  int64_t epoch_before = session.epoch();

  EXPECT_FALSE(session.Ingest("<broken><unclosed>").ok());
  std::string after;
  session.Snapshot(&after, nullptr);
  EXPECT_EQ(before, after);
  EXPECT_EQ(session.epoch(), epoch_before);
  EXPECT_EQ(session.failed_documents(), 1);
}

TEST(IngestSession, RejectedDocumentLeavesTheAcknowledgedState) {
  // Each rejected document completes a word the document after it
  // completes too, but later in that document than another word of the
  // same element: `a` folds [r] before [b] in a batch run over the
  // acknowledged documents. In the first case the rejected names q and
  // s are forgotten and a and b take their ids, so q's [s] becomes a's
  // [b]; in the second a and b are known names.
  const std::vector<std::vector<std::string>> cases = {
      {"<r/>", "<r><q><s/></q>", "<r><a><r/></a><a><b/></a></r>"},
      {"<r><a/><b/></r>", "<r><a><b/></a>",
       "<r><a><r/></a><a><b/></a></r>"},
  };
  for (const std::vector<std::string>& docs : cases) {
    IngestSession session{InferenceOptions{}};
    ASSERT_TRUE(session.Ingest(docs[0]).ok());
    EXPECT_FALSE(session.Ingest(docs[1]).ok());
    ASSERT_TRUE(session.Ingest(docs[2]).ok());
    std::string state;
    session.Snapshot(&state, nullptr);

    IngestEngine engine{IngestEngine::Options{}};
    engine.AddXml(docs[0]);
    engine.AddXml(docs[2]);
    ASSERT_TRUE(engine.Finish().ok());
    EXPECT_EQ(state, engine.inferrer().SaveState()) << docs[1];
  }
}

TEST(IngestSession, ApproxBytesGrowsWithRetainedState) {
  IngestSession session{InferenceOptions{}};
  size_t empty = session.ApproxBytes();
  ASSERT_TRUE(session.Ingest(Doc(0)).ok());
  size_t one = session.ApproxBytes();
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(session.Ingest(Doc(i)).ok());
  }
  size_t ten = session.ApproxBytes();
  EXPECT_LT(empty, one);
  EXPECT_LT(one, ten);
}

/// What IngestSession::ApproxBytes adds up, by a full walk: every
/// summary measured afresh, with no memo.
size_t WalkedBytes(const IngestSession& session) {
  size_t bytes = 0;
  session.Inspect(
      [&bytes](const DtdInferrer& inferrer, const StreamingFolder& folder) {
        bytes = inferrer.summaries().ApproxBytes() +
                inferrer.alphabet().ApproxBytes() +
                folder.cache_bytes_resident();
      });
  return bytes;
}

TEST(IngestSession, ApproxBytesEqualsAFullWalkAfterEveryStep) {
  // A seeded script of the ways a session's state changes: accepted and
  // rejected INGESTs, a QUERY's flush and copies, MergeFrom of a folded
  // and of a loaded state, and a reopen from a snapshot as recovery
  // does it. ApproxBytes re-measures only the summaries whose version
  // moved; after every step it must equal a full walk.
  const std::vector<std::string> docs = MixedDocs(40);
  const std::vector<std::string> rejected = {
      "<library><book></library>", "<library><shelf><q/></shelf>",
      "<r><s>&#0;</s></r>", "no markup"};
  Rng rng(20061012);
  auto session = std::make_unique<IngestSession>(InferenceOptions{});
  std::vector<uint64_t> known;
  Alphabet names;
  SummaryDelta delta;
  ASSERT_EQ(session->ApproxBytes(), WalkedBytes(*session));
  for (int step = 0; step < 400; ++step) {
    std::string label;
    switch (rng.NextBelow(6)) {
      case 0:
      case 1:
        label = "ingest";
        ASSERT_TRUE(session->Ingest(docs[rng.NextBelow(docs.size())]).ok());
        break;
      case 2:
        label = "rejected ingest";
        ASSERT_FALSE(
            session->Ingest(rejected[rng.NextBelow(rejected.size())]).ok());
        break;
      case 3:
        label = "query";
        session->SnapshotChanged(known, &names, &delta);
        for (const auto& [symbol, version] : delta.versions) {
          if (static_cast<size_t>(symbol) >= known.size()) {
            known.resize(symbol + 1, 0);
          }
          known[symbol] = version;
        }
        break;
      case 4: {
        label = "merge";
        DtdInferrer other;
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(other.AddXml(docs[rng.NextBelow(docs.size())]).ok());
        }
        session->MergeFrom(other);
        break;
      }
      case 5: {
        label = "load state";
        DtdInferrer loaded;
        ASSERT_TRUE(
            loaded.LoadState(PrefixState(docs, 1 + rng.NextBelow(8))).ok());
        session->MergeFrom(loaded);
        break;
      }
    }
    ASSERT_EQ(session->ApproxBytes(), WalkedBytes(*session))
        << "step " << step << ": " << label;
    if (step == 200) {
      std::string state;
      session->Snapshot(&state, nullptr);
      session = std::make_unique<IngestSession>(InferenceOptions{});
      DtdInferrer loaded;
      ASSERT_TRUE(loaded.LoadState(state).ok());
      session->MergeFrom(loaded);
      known.clear();
      names = Alphabet();
      ASSERT_EQ(session->ApproxBytes(), WalkedBytes(*session)) << "reopen";
    }
  }
}

// ---------------------------------------------------------------------
// Corpus durability

TEST(Corpus, RecoversFromJournalAloneAfterCrash) {
  TempDir dir;
  serve::Corpus::Options options;
  options.data_dir = dir.path();
  options.fsync_journal = false;  // in-process "crash" keeps the bytes

  std::vector<std::string> docs;
  for (int i = 0; i < 6; ++i) docs.push_back(Doc(i));

  {
    Result<std::unique_ptr<serve::Corpus>> corpus =
        serve::Corpus::Open("lib", options);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    for (const std::string& doc : docs) {
      ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    }
    // No snapshot, no clean shutdown: the object is dropped with only
    // the journal on disk — exactly the kill -9 disk image.
  }

  Result<std::unique_ptr<serve::Corpus>> recovered =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Result<std::string> dtd = (*recovered)->Query("", /*xsd=*/false);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
  EXPECT_EQ((*recovered)->GetStats().replayed_documents, 6);
}

TEST(Corpus, RecoversFromSnapshotPlusJournal) {
  std::vector<std::string> docs = MixedDocs(8);
  constexpr size_t kSnapshotAt = 5;
  // `count` is an integer in the snapshot and a word after it: the
  // recovered XSD must declare a type its every value satisfies.
  docs.insert(docs.begin() + 1, "<count>7</count>");
  docs.push_back("<count>seven</count>");
  const std::string want_xsd = PrefixXsd(docs, docs.size());
  EXPECT_NE(want_xsd.find("<xs:element name=\"count\" type=\"xs:string\"/>"),
            std::string::npos)
      << want_xsd;
  EXPECT_NE(PrefixXsd(docs, docs.size() - 1)
                .find("<xs:element name=\"count\" type=\"xs:integer\"/>"),
            std::string::npos);
  for (int replay_jobs : {1, 3}) {
    SCOPED_TRACE("replay_jobs " + std::to_string(replay_jobs));
    TempDir dir;
    serve::Corpus::Options options;
    options.data_dir = dir.path();
    options.fsync_journal = false;
    {
      Result<std::unique_ptr<serve::Corpus>> corpus =
          serve::Corpus::Open("lib", options);
      ASSERT_TRUE(corpus.ok());
      for (size_t i = 0; i < docs.size(); ++i) {
        if (i == kSnapshotAt) {
          ASSERT_TRUE((*corpus)->WriteSnapshot().ok());
        }
        ASSERT_TRUE((*corpus)->Ingest(docs[i]).ok());
      }
    }

    // Recovery loads the snapshot into the engine ahead of the replayed
    // journal, at every job count.
    options.replay_jobs = replay_jobs;
    Result<std::unique_ptr<serve::Corpus>> recovered =
        serve::Corpus::Open("lib", options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    serve::CorpusStats stats = (*recovered)->GetStats();
    EXPECT_EQ(stats.generation, 1);
    // Only the post-snapshot tail is replayed.
    EXPECT_EQ(stats.replayed_documents,
              static_cast<int64_t>(docs.size() - kSnapshotAt));

    Result<std::string> dtd = (*recovered)->Query("", /*xsd=*/false);
    ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
    EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
    Result<std::string> xsd = (*recovered)->Query("", /*xsd=*/true);
    ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
    EXPECT_EQ(*xsd, want_xsd);

    // At every job count the next snapshot file holds the batch state,
    // byte for byte.
    ASSERT_TRUE((*recovered)->WriteSnapshot().ok());
    Result<std::string> snapshot =
        ReadFileToString(dir.path() + "/lib/snapshot-2.state");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(*snapshot, PrefixState(docs, docs.size()));
  }
}

TEST(Corpus, TornJournalTailRecoversAcknowledgedPrefix) {
  TempDir dir;
  serve::Corpus::Options options;
  options.data_dir = dir.path();
  options.fsync_journal = false;

  std::vector<std::string> docs;
  for (int i = 0; i < 4; ++i) docs.push_back(Doc(i));

  {
    Result<std::unique_ptr<serve::Corpus>> corpus =
        serve::Corpus::Open("lib", options);
    ASSERT_TRUE(corpus.ok());
    for (const std::string& doc : docs) {
      ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    }
  }
  // Crash mid-append of a 5th document: header + half the payload.
  std::string journal = dir.path() + "/lib/journal-0.log";
  Result<std::string> intact = ReadFileToString(journal);
  ASSERT_TRUE(intact.ok());
  ASSERT_TRUE(
      WriteStringToFile(journal, *intact + "doc 4 64\n<library><bo").ok());

  Result<std::unique_ptr<serve::Corpus>> recovered =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Result<std::string> dtd = (*recovered)->Query("", /*xsd=*/false);
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
}

TEST(Corpus, QueriesDuringIngestionAnswerForAConsistentPrefix) {
  std::vector<std::string> docs = MixedDocs(16);

  std::set<std::string> prefix_dtds;
  for (size_t prefix = 1; prefix <= docs.size(); ++prefix) {
    prefix_dtds.insert(PrefixDtd(docs, prefix));
  }

  serve::Corpus::Options options;  // ephemeral: no data_dir
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Ingest(docs[0]).ok());  // never query empty

  std::vector<std::string> answers;
  std::thread reader([&corpus, &answers] {
    for (int i = 0; i < 40; ++i) {
      Result<std::string> dtd = (*corpus)->Query("", /*xsd=*/false);
      ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
      answers.push_back(std::move(*dtd));
    }
  });
  for (size_t i = 1; i < docs.size(); ++i) {
    ASSERT_TRUE((*corpus)->Ingest(docs[i]).ok());
  }
  reader.join();

  for (const std::string& answer : answers) {
    // Byte-identical to the sequential answer for SOME prefix of the
    // acknowledged sequence: the concurrent reader can never observe a
    // half-folded document.
    EXPECT_TRUE(prefix_dtds.count(answer) > 0)
        << "query answered for a non-prefix state:\n"
        << answer;
    // And it is well-formed DTD text.
    Alphabet alphabet;
    EXPECT_TRUE(ParseDtd(answer, &alphabet).ok());
  }
  Result<std::string> final_dtd = (*corpus)->Query("", /*xsd=*/false);
  ASSERT_TRUE(final_dtd.ok());
  EXPECT_EQ(*final_dtd, PrefixDtd(docs, docs.size()));
}

TEST(Corpus, QueryCacheHitsOnlyWhenUnchanged) {
  serve::Corpus::Options options;
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Ingest(Doc(0)).ok());

  Result<std::string> first = (*corpus)->Query("", false);
  Result<std::string> second = (*corpus)->Query("", false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ((*corpus)->GetStats().query_cache_hits, 1);

  ASSERT_TRUE((*corpus)->Ingest(Doc(1)).ok());
  Result<std::string> third = (*corpus)->Query("", false);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*corpus)->GetStats().query_cache_hits, 1);  // invalidated
  EXPECT_NE(*first, *third);
}

/// A Table 1 record as a document of its own, the shape of perfbench's
/// serve_mixed corpus: children are prefixed with the model's name, so
/// each model owns its elements and shares only the `corpus` root.
std::string Table1Doc(const ExperimentCase& model, size_t record) {
  std::string xml = "<corpus><" + model.name + " id=\"" + model.name + "-" +
                    std::to_string(record) + "\">";
  for (Symbol s : model.sample[record]) {
    std::string child = model.name + "_" + model.alphabet.Name(s);
    xml += "<" + child + ">record " + std::to_string(record) + "</" + child +
           ">";
  }
  return xml + "</" + model.name + "></corpus>";
}

TEST(Corpus, QueryRelearnsOnlyTheElementsAWindowTouched) {
#ifdef CONDTD_NO_STATS
  GTEST_SKIP() << "the QUERY element counters compile out";
#else
  std::vector<ExperimentCase> models = BuildTable1Cases(20060912);
  ASSERT_GE(models.size(), 2u);
  std::vector<std::string> docs;
  for (const ExperimentCase& model : models) {
    for (size_t record = 0; record < 3; ++record) {
      docs.push_back(Table1Doc(model, record));
    }
  }
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", serve::Corpus::Options());
  ASSERT_TRUE(corpus.ok());
  for (const std::string& doc : docs) {
    ASSERT_TRUE((*corpus)->Ingest(doc).ok());
  }
  obs::EnableStats(true);
  obs::ResetStats();
  auto counter = [](obs::SchedCounter c) {
    return obs::SnapshotStats().sched[static_cast<int>(c)];
  };
  Result<std::string> first = (*corpus)->Query("", false);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t elements =
      counter(obs::SchedCounter::kQueryElementsRelearned);
  EXPECT_EQ(counter(obs::SchedCounter::kQueryElementsReused), 0);

  // A window of one model's records touches the root, that model's
  // element and the children its records carry, and nothing else.
  const ExperimentCase& model = models[1];
  std::set<std::string> touched = {"corpus", model.name};
  for (size_t record = 3; record < 6; ++record) {
    std::string doc = Table1Doc(model, record);
    ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    docs.push_back(doc);
    for (Symbol s : model.sample[record]) {
      touched.insert(model.name + "_" + model.alphabet.Name(s));
    }
  }
  obs::ResetStats();
  Result<std::string> second = (*corpus)->Query("", false);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const int64_t relearned =
      counter(obs::SchedCounter::kQueryElementsRelearned);
  EXPECT_EQ(relearned, static_cast<int64_t>(touched.size()));
  EXPECT_EQ(counter(obs::SchedCounter::kQueryElementsReused),
            elements - relearned);
  EXPECT_LT(relearned, elements);
  EXPECT_EQ(*second, PrefixDtd(docs, docs.size()));
  EXPECT_EQ((*corpus)->GetStats().query_cache_hits, 0);
  obs::EnableStats(false);
#endif
}

TEST(Corpus, TwoReadersAndAWriterAnswerForAPrefix) {
  std::vector<std::string> docs = MixedDocs(16);
  InferenceOptions crx;
  crx.learner = "crx";
  std::set<std::string> auto_dtds, crx_dtds;
  for (size_t prefix = 1; prefix <= docs.size(); ++prefix) {
    auto_dtds.insert(PrefixDtd(docs, prefix));
    crx_dtds.insert(PrefixDtd(docs, prefix, crx));
  }
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", serve::Corpus::Options());
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Ingest(docs[0]).ok());

  // Different learners: each reader has its own memo, with its own lock
  // and names, so the two learn side by side.
  auto read = [&corpus](const std::string& learner,
                        std::vector<std::string>* answers) {
    for (int i = 0; i < 30; ++i) {
      Result<std::string> dtd = (*corpus)->Query(learner, /*xsd=*/false);
      ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
      answers->push_back(std::move(*dtd));
    }
  };
  std::vector<std::string> auto_answers, crx_answers;
  std::thread auto_reader(read, "", &auto_answers);
  std::thread crx_reader(read, "crx", &crx_answers);
  for (size_t i = 1; i < docs.size(); ++i) {
    ASSERT_TRUE((*corpus)->Ingest(docs[i]).ok());
  }
  auto_reader.join();
  crx_reader.join();

  for (const std::string& answer : auto_answers) {
    EXPECT_TRUE(auto_dtds.count(answer) > 0) << answer;
  }
  for (const std::string& answer : crx_answers) {
    EXPECT_TRUE(crx_dtds.count(answer) > 0) << answer;
  }
  Result<std::string> last = (*corpus)->Query("crx", false);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, PrefixDtd(docs, docs.size(), crx));
}

TEST(Corpus, UnknownLearnerKeepsItsErrorAndLeavesNoMemo) {
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", serve::Corpus::Options());
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Ingest(Doc(0)).ok());
  for (int i = 0; i < 20; ++i) {
    Result<std::string> bogus =
        (*corpus)->Query("nonsense" + std::to_string(i), i % 2 == 0);
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bogus.status().message().find(
                  "unknown learner 'nonsense" + std::to_string(i) +
                  "' (registered: "),
              std::string::npos)
        << bogus.status().ToString();
  }
  EXPECT_EQ((*corpus)->GetStats().query_memos, 0);
  EXPECT_EQ((*corpus)->GetStats().queries, 20);

  // One memo per learner and format; the default learner by name is the
  // same memo as the default.
  ASSERT_TRUE((*corpus)->Query("", false).ok());
  ASSERT_TRUE((*corpus)->Query("auto", false).ok());
  ASSERT_TRUE((*corpus)->Query("", true).ok());
  EXPECT_EQ((*corpus)->GetStats().query_memos, 2);
}

TEST(Corpus, MemoryCapRefusesFurtherIngestion) {
  serve::Corpus::Options options;
  options.max_corpus_bytes = 1;  // below even an empty session
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(corpus.ok());
  Status refused = (*corpus)->Ingest(Doc(0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);

  serve::Corpus::Options roomy;
  roomy.max_corpus_bytes = 64 << 20;
  Result<std::unique_ptr<serve::Corpus>> ok_corpus =
      serve::Corpus::Open("lib2", roomy);
  ASSERT_TRUE(ok_corpus.ok());
  EXPECT_TRUE((*ok_corpus)->Ingest(Doc(0)).ok());
}

TEST(Corpus, CorpusBytesGaugeFollowsTheStatsSwitch) {
  // INGEST reads the gauge only while the registry collects; then it
  // holds the retained bytes.
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", serve::Corpus::Options());
  ASSERT_TRUE(corpus.ok());
  auto gauge = [] {
    return obs::SnapshotStats()
        .gauges[static_cast<int>(obs::Gauge::kCorpusBytesPeak)];
  };
  obs::EnableStats(false);
  obs::ResetStats();
  ASSERT_TRUE((*corpus)->Ingest(Doc(0)).ok());
  EXPECT_EQ(gauge(), 0);
#ifndef CONDTD_NO_STATS
  obs::EnableStats(true);
  obs::ResetStats();
  ASSERT_TRUE((*corpus)->Ingest(Doc(1)).ok());
  EXPECT_EQ(gauge(), (*corpus)->GetStats().approx_bytes);
  obs::EnableStats(false);
#endif
}

TEST(Corpus, XsdQueryAndAlgorithmOverride) {
  serve::Corpus::Options options;
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Ingest(Doc(3)).ok());

  Result<std::string> xsd = (*corpus)->Query("", /*xsd=*/true);
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_NE(xsd->find("schema"), std::string::npos);

  Result<std::string> crx = (*corpus)->Query("crx", /*xsd=*/false);
  ASSERT_TRUE(crx.ok()) << crx.status().ToString();
  InferenceOptions crx_options;
  crx_options.learner = "crx";
  EXPECT_EQ(*crx, PrefixDtd({Doc(3)}, 1, crx_options));

  // The corpus keeps no word reservoir for XTRACT to learn from.
  Result<std::string> xtract = (*corpus)->Query("xtract", false);
  ASSERT_FALSE(xtract.ok());
  EXPECT_EQ(xtract.status().code(), StatusCode::kFailedPrecondition);

  Result<std::string> bogus = (*corpus)->Query("nonsense", false);
  EXPECT_FALSE(bogus.ok());
}

// ---------------------------------------------------------------------
// Registry

TEST(CorpusRegistry, ValidatesIdsAndDistinguishesGetFromCreate) {
  serve::CorpusRegistry registry{serve::Corpus::Options{}};
  for (const char* bad :
       {"", ".", "..", "a/b", "a b", "a\nb", "../../etc/passwd"}) {
    EXPECT_FALSE(serve::CorpusRegistry::ValidCorpusId(bad)) << bad;
    EXPECT_FALSE(registry.GetOrCreate(bad).ok()) << bad;
  }
  EXPECT_FALSE(
      serve::CorpusRegistry::ValidCorpusId(std::string(129, 'a')));

  EXPECT_FALSE(registry.Get("lib").ok());  // NotFound before creation
  EXPECT_EQ(registry.Get("lib").status().code(), StatusCode::kNotFound);

  Result<std::shared_ptr<serve::Corpus>> created = registry.GetOrCreate("lib");
  ASSERT_TRUE(created.ok());
  Result<std::shared_ptr<serve::Corpus>> again = registry.GetOrCreate("lib");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*created, *again);  // same live instance
  EXPECT_EQ(registry.List().size(), 1u);
}

TEST(CorpusRegistry, RecoverAllReopensPersistedCorpora) {
  TempDir dir;
  serve::Corpus::Options options;
  options.data_dir = dir.path();
  options.fsync_journal = false;
  {
    serve::CorpusRegistry registry{options};
    Result<std::shared_ptr<serve::Corpus>> a = registry.GetOrCreate("alpha");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE((*a)->Ingest(Doc(0)).ok());
    Result<std::shared_ptr<serve::Corpus>> b = registry.GetOrCreate("beta");
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE((*b)->Ingest(Doc(1)).ok());
  }
  serve::CorpusRegistry registry{options};
  ASSERT_TRUE(registry.RecoverAll().ok());
  ASSERT_EQ(registry.List().size(), 2u);
  EXPECT_TRUE(registry.Get("alpha").ok());
  EXPECT_TRUE(registry.Get("beta").ok());
}

TEST(Corpus, SizeTriggeredCompactionBoundsJournalAndCollectsOldGens) {
  TempDir dir;
  serve::Corpus::Options options;
  options.data_dir = dir.path();
  options.fsync_journal = false;
  options.compact_journal_bytes = 200;  // a couple of Doc() records

  std::vector<std::string> docs;
  for (int i = 0; i < 12; ++i) docs.push_back(Doc(i));

  {
    Result<std::unique_ptr<serve::Corpus>> corpus =
        serve::Corpus::Open("lib", options);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    for (const std::string& doc : docs) {
      ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    }
    serve::CorpusStats stats = (*corpus)->GetStats();
    EXPECT_GT(stats.compactions, 0) << "journal never hit the size trigger";
    EXPECT_EQ(stats.snapshots, stats.compactions);
    EXPECT_GT(stats.generation, 0);
    // The live journal holds at most the documents since the last
    // rotation: one record past the threshold plus the one that
    // triggered the check.
    EXPECT_LE(stats.journal_bytes,
              options.compact_journal_bytes + 512);

    // Old generations are garbage-collected at rotation: the directory
    // holds exactly the live pair plus CURRENT.
    std::string generation = std::to_string(stats.generation);
    std::vector<std::string> expect = {
        "CURRENT", "journal-" + generation + ".log",
        "snapshot-" + generation + ".state"};
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(ListDir(dir.path() + "/lib"), expect);
  }

  // Replay after close: snapshot + short journal reproduce the batch
  // answer byte-identically.
  Result<std::unique_ptr<serve::Corpus>> reopened =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<std::string> dtd = (*reopened)->Query("", false);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
  // What compaction buys: replay touches only the live journal's few
  // records, not all 12 documents.
  EXPECT_LT((*reopened)->GetStats().replayed_documents,
            static_cast<int64_t>(docs.size()));
}

TEST(Corpus, OpenCollectsOrphanGenerationsAndTmpFiles) {
  TempDir dir;
  serve::Corpus::Options options;
  options.data_dir = dir.path();
  options.fsync_journal = false;

  std::vector<std::string> docs = {Doc(0), Doc(1), Doc(2)};
  {
    Result<std::unique_ptr<serve::Corpus>> corpus =
        serve::Corpus::Open("lib", options);
    ASSERT_TRUE(corpus.ok());
    for (const std::string& doc : docs) {
      ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    }
    ASSERT_TRUE((*corpus)->WriteSnapshot().ok());  // live generation: 1
  }

  // A crash between the CURRENT rename and the old-generation unlink
  // leaves unreachable generation files and staging temps behind.
  for (const char* orphan : {"snapshot-99.state", "journal-99.log",
                             "snapshot-0.state.tmp"}) {
    std::FILE* file =
        std::fopen((dir.path() + "/lib/" + orphan).c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("junk", file);
    std::fclose(file);
  }

  Result<std::unique_ptr<serve::Corpus>> reopened =
      serve::Corpus::Open("lib", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<std::string> expect = {"CURRENT", "journal-1.log",
                                     "snapshot-1.state"};
  EXPECT_EQ(ListDir(dir.path() + "/lib"), expect);
  Result<std::string> dtd = (*reopened)->Query("", false);
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
}

// ---------------------------------------------------------------------
// Registry eviction / TTL

TEST(CorpusRegistry, TtlEvictionIsInvisibleToClients) {
  TempDir dir;
  int64_t now_ns = 0;
  serve::CorpusRegistry::Options options;
  options.corpus.data_dir = dir.path();
  options.corpus.fsync_journal = false;
  options.corpus_ttl_seconds = 60;
  options.clock_ns = [&now_ns] { return now_ns; };
  serve::CorpusRegistry registry(options);

  std::vector<std::string> docs;
  for (int i = 0; i < 4; ++i) docs.push_back(Doc(i));

  int64_t epoch_before = 0;
  std::string dtd_before;
  {
    Result<std::shared_ptr<serve::Corpus>> corpus =
        registry.GetOrCreate("lib");
    ASSERT_TRUE(corpus.ok());
    for (const std::string& doc : docs) {
      ASSERT_TRUE((*corpus)->Ingest(doc).ok());
    }
    Result<std::string> dtd = (*corpus)->Query("", false);
    ASSERT_TRUE(dtd.ok());
    dtd_before = *dtd;
    epoch_before = (*corpus)->epoch();
  }  // drop the handle: the corpus is now unpinned

  // Fresh corpora survive a sweep.
  now_ns += int64_t{59} * 1000000000;
  EXPECT_EQ(registry.SweepNow(), 0);
  ASSERT_EQ(registry.List().size(), 1u);

  // Past the TTL the corpus is snapshotted and closed.
  now_ns += int64_t{2} * 1000000000;
  EXPECT_EQ(registry.SweepNow(), 1);
  EXPECT_TRUE(registry.List().empty());

  // ... but not deleted: the next Get transparently re-opens it with a
  // byte-identical answer and monotone counters.
  Result<std::shared_ptr<serve::Corpus>> again = registry.Get("lib");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Result<std::string> dtd_after = (*again)->Query("", false);
  ASSERT_TRUE(dtd_after.ok());
  EXPECT_EQ(*dtd_after, dtd_before);
  EXPECT_EQ(*dtd_after, PrefixDtd(docs, docs.size()));
  serve::CorpusStats stats = (*again)->GetStats();
  EXPECT_EQ(stats.documents, static_cast<int64_t>(docs.size()));
  EXPECT_GE((*again)->epoch(), epoch_before);

  // The ack counters keep counting up from where they left off.
  ASSERT_TRUE((*again)->Ingest(Doc(9)).ok());
  EXPECT_EQ((*again)->GetStats().documents,
            static_cast<int64_t>(docs.size()) + 1);
}

TEST(CorpusRegistry, SweepSkipsPinnedCorpora) {
  TempDir dir;
  int64_t now_ns = 0;
  serve::CorpusRegistry::Options options;
  options.corpus.data_dir = dir.path();
  options.corpus.fsync_journal = false;
  options.corpus_ttl_seconds = 1;
  options.clock_ns = [&now_ns] { return now_ns; };
  serve::CorpusRegistry registry(options);

  Result<std::shared_ptr<serve::Corpus>> pinned =
      registry.GetOrCreate("lib");
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE((*pinned)->Ingest(Doc(0)).ok());

  // Idle far past the TTL, but a request still holds the handle: the
  // sweeper must not close a corpus out from under it.
  now_ns += int64_t{3600} * 1000000000;
  EXPECT_EQ(registry.SweepNow(), 0);
  ASSERT_EQ(registry.List().size(), 1u);

  pinned->reset();
  EXPECT_EQ(registry.SweepNow(), 1);
  EXPECT_TRUE(registry.List().empty());
}

TEST(CorpusRegistry, MaxCorporaEvictsLeastRecentlyTouched) {
  TempDir dir;
  int64_t now_ns = 0;
  serve::CorpusRegistry::Options options;
  options.corpus.data_dir = dir.path();
  options.corpus.fsync_journal = false;
  options.max_corpora = 2;
  options.clock_ns = [&now_ns] { return now_ns; };
  serve::CorpusRegistry registry(options);

  auto create_and_release = [&](const std::string& id) {
    now_ns += 1000000000;
    Result<std::shared_ptr<serve::Corpus>> corpus =
        registry.GetOrCreate(id);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    ASSERT_TRUE((*corpus)->Ingest(Doc(0)).ok());
  };
  create_and_release("aa");
  create_and_release("bb");
  now_ns += 1000000000;
  ASSERT_TRUE(registry.Get("aa").ok());  // "bb" is now the LRU tenant

  create_and_release("cc");  // over the cap: evicts "bb" at creation
  std::vector<std::string> open;
  for (const std::shared_ptr<serve::Corpus>& corpus : registry.List()) {
    open.push_back(corpus->id());
  }
  EXPECT_EQ(open, (std::vector<std::string>{"aa", "cc"}));

  // The evicted tenant is still reachable (transparent reopen), and a
  // sweep re-establishes the cap afterwards.
  ASSERT_TRUE(registry.Get("bb").ok());
  ASSERT_EQ(registry.List().size(), 3u);
  EXPECT_EQ(registry.SweepNow(), 1);
  EXPECT_EQ(registry.List().size(), 2u);
}

TEST(CorpusRegistry, EphemeralCapRefusesInsteadOfEvicting) {
  serve::CorpusRegistry::Options options;  // no data_dir: nothing durable
  options.max_corpora = 1;
  serve::CorpusRegistry registry(options);

  Result<std::shared_ptr<serve::Corpus>> first =
      registry.GetOrCreate("aa");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->Ingest(Doc(0)).ok());

  // Evicting an ephemeral corpus would silently drop acknowledged
  // documents, so the cap refuses new tenants instead.
  Result<std::shared_ptr<serve::Corpus>> second =
      registry.GetOrCreate("bb");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // The resident tenant is untouched.
  EXPECT_TRUE(registry.GetOrCreate("aa").ok());
  EXPECT_EQ(registry.List().size(), 1u);
  EXPECT_EQ(registry.SweepNow(), 0);
}

// ---------------------------------------------------------------------
// Server + Client over a real unix socket

class ServeEndToEnd : public ::testing::Test {
 protected:
  void StartServer(serve::ServerOptions options) {
    options.unix_socket = socket_path();
    server_.emplace(std::move(options));
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }
  serve::Client Connect() {
    Result<serve::Client> client =
        serve::Client::ConnectUnix(socket_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }
  std::string socket_path() const { return dir_.path() + "/condtd.sock"; }
  void TearDown() override {
    if (server_) server_->Stop();
  }

  TempDir dir_;
  std::optional<serve::Server> server_;
};

TEST_F(ServeEndToEnd, ProtocolRoundTrip) {
  serve::ServerOptions options;
  options.workers = 2;
  options.corpus.data_dir = dir_.path() + "/data";
  options.corpus.fsync_journal = false;
  StartServer(std::move(options));

  serve::Client client = Connect();
  Result<std::string> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "pong");

  std::vector<std::string> docs;
  for (int i = 0; i < 5; ++i) docs.push_back(Doc(i));
  for (const std::string& doc : docs) {
    Result<std::string> ack = client.IngestInline("lib", doc);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }

  Result<std::string> dtd = client.Query("lib");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));

  Result<std::string> xsd = client.Query("lib", "", /*xsd=*/true);
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_NE(xsd->find("schema"), std::string::npos);

  Result<std::string> snap = client.Snapshot("lib");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_NE(snap->find("generation=1"), std::string::npos);

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key :
       {"\"condtd_serve_stats_version\": 1", "\"lib\"",
        "\"documents_ingested\": 5", "\"condtd_corpus_bytes\"",
        "\"ingest_latency\"", "\"query_latency\"", "\"process\"",
        "\"condtd_stats_version\": 1"}) {
    EXPECT_NE(stats->find(key), std::string::npos)
        << key << "\n" << *stats;
  }

  Result<std::string> bye = client.Shutdown();
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  server_->Wait();
  server_.reset();
}

TEST_F(ServeEndToEnd, ErrorsComeBackWithCodes) {
  serve::ServerOptions options;  // ephemeral corpora
  StartServer(std::move(options));
  serve::Client client = Connect();

  // Unknown command.
  Result<std::string> unknown = client.Roundtrip("FROBNICATE");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  // QUERY against a corpus that never ingested.
  Result<std::string> missing = client.Query("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Invalid corpus id.
  Result<std::string> bad_id = client.IngestInline("a/b", "<x/>");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_EQ(bad_id.status().code(), StatusCode::kInvalidArgument);

  // A malformed document reports the parse error; the connection (and
  // the corpus) survive it.
  Result<std::string> bad_doc =
      client.IngestInline("lib", "<broken><unclosed>");
  ASSERT_FALSE(bad_doc.ok());
  EXPECT_EQ(bad_doc.status().code(), StatusCode::kParseError);
  Result<std::string> good_doc = client.IngestInline("lib", Doc(0));
  ASSERT_TRUE(good_doc.ok()) << good_doc.status().ToString();
  Result<std::string> dtd = client.Query("lib");
  ASSERT_TRUE(dtd.ok());
  std::vector<std::string> docs = {Doc(0)};
  EXPECT_EQ(*dtd, PrefixDtd(docs, 1));
}

TEST_F(ServeEndToEnd, ConcurrentClientsOnDistinctCorpora) {
  serve::ServerOptions options;
  options.workers = 4;
  StartServer(std::move(options));

  constexpr int kClients = 4;
  constexpr int kDocsPerClient = 8;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c] {
      serve::Client client = Connect();
      std::string corpus = "tenant" + std::to_string(c);
      for (int i = 0; i < kDocsPerClient; ++i) {
        Result<std::string> ack =
            client.IngestInline(corpus, Doc((c + i) % 7));
        ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      }
      Result<std::string> dtd = client.Query(corpus);
      ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Each tenant's answer equals a fresh batch run over its own docs —
  // tenants are fully isolated.
  serve::Client client = Connect();
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::string> docs;
    for (int i = 0; i < kDocsPerClient; ++i) {
      docs.push_back(Doc((c + i) % 7));
    }
    Result<std::string> dtd =
        client.Query("tenant" + std::to_string(c));
    ASSERT_TRUE(dtd.ok());
    EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
  }
}

TEST_F(ServeEndToEnd, RestartAfterUncleanStopServesRecoveredCorpora) {
  serve::ServerOptions options;
  options.corpus.data_dir = dir_.path() + "/data";
  options.corpus.fsync_journal = false;
  std::vector<std::string> docs;
  for (int i = 0; i < 5; ++i) docs.push_back(Doc(i));

  StartServer(options);
  {
    serve::Client client = Connect();
    for (const std::string& doc : docs) {
      ASSERT_TRUE(client.IngestInline("lib", doc).ok());
    }
  }
  // Stop without SNAPSHOT or SHUTDOWN bookkeeping: state must come back
  // from the journal alone.
  server_->Stop();
  server_.reset();

  StartServer(options);
  serve::Client client = Connect();
  Result<std::string> dtd = client.Query("lib");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
}

// ---------------------------------------------------------------------
// Wire-protocol input validation

TEST_F(ServeEndToEnd, RejectsMalformedInlineLengths) {
  StartServer(serve::ServerOptions{});  // ephemeral corpora
  serve::Client client = Connect();

  // "-1" used to wrap through strtoull to ULLONG_MAX; every entry here
  // must be rejected before any payload byte is read or allocated.
  for (const char* bad : {"-1", "0", "-9223372036854775808",
                          "99999999999999999999", "12x", "+5", "0x10"}) {
    Result<std::string> rejected =
        client.Roundtrip(std::string("INGEST lib INLINE ") + bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << bad;
    // The connection stays framed and usable after each rejection.
    Result<std::string> pong = client.Ping();
    ASSERT_TRUE(pong.ok()) << bad << ": " << pong.status().ToString();
  }
}

TEST_F(ServeEndToEnd, OversizedInlineIsDrainedNotBuffered) {
  serve::ServerOptions options;
  options.max_inline_bytes = 1024;
  StartServer(std::move(options));
  serve::Client client = Connect();

  // The announced payload exceeds the cap: the server must reject it,
  // drain it in bounded chunks, and keep the connection framed.
  std::string payload(4096, 'x');
  Result<std::string> rejected =
      client.Roundtrip("INGEST lib INLINE 4096\n" + payload);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("max-inline-bytes"),
            std::string::npos)
      << rejected.status().ToString();
  Result<std::string> pong = client.Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();

  // Same framing rule when the corpus id (not the size) is at fault.
  Result<std::string> bad_id =
      client.Roundtrip("INGEST bad/id INLINE 5\nhello");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_EQ(bad_id.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.Ping().ok());

  // At the cap is still fine.
  ASSERT_TRUE(client.IngestInline("lib", Doc(0)).ok());
}

TEST_F(ServeEndToEnd, OverDeepIngestIsRefusedAndTheCorpusKeepsServing) {
  serve::ServerOptions options;
  options.corpus.data_dir = dir_.path() + "/data";
  options.corpus.fsync_journal = false;
  StartServer(std::move(options));
  serve::Client client = Connect();
  ASSERT_TRUE(client.IngestInline("lib", Doc(0)).ok());

  // One unclosed element past the nesting cap. The fold keeps a frame
  // per open element, so without the cap a large payload of these would
  // grow the daemon's memory without bound; with it the document is
  // refused like any other parse error and never reaches the journal.
  std::string deep;
  for (size_t i = 0; i <= kMaxElementDepth; ++i) deep += "<d>";
  Result<std::string> refused = client.IngestInline("lib", deep);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
  EXPECT_EQ(refused.status().message(),
            "element nesting deeper than " +
                std::to_string(kMaxElementDepth));

  ASSERT_TRUE(client.IngestInline("lib", Doc(1)).ok());
  const std::vector<std::string> docs = {Doc(0), Doc(1)};
  Result<std::string> dtd = client.Query("lib");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"documents_ingested\": 2"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"documents_failed\": 1"), std::string::npos)
      << *stats;
}

TEST_F(ServeEndToEnd, PathIngestSurvivesRepeatedSpaces) {
  StartServer(serve::ServerOptions{});
  serve::Client client = Connect();

  std::vector<std::string> docs = {Doc(0), Doc(1)};
  // A filename with an interior space, referenced through a command
  // line with collapsed-looking space runs between the tokens.
  std::string path = dir_.path() + "/doc one.xml";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs(docs[0].c_str(), file);
  std::fclose(file);

  Result<std::string> spaced =
      client.Roundtrip("INGEST  lib  PATH  " + path);
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  ASSERT_TRUE(client.IngestInline("lib", docs[1]).ok());

  Result<std::string> dtd = client.Query("lib");
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(*dtd, PrefixDtd(docs, docs.size()));

  // Still an error when the path is genuinely missing.
  Result<std::string> empty = client.Roundtrip("INGEST lib PATH   ");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// HTTP front-end

/// One blocking HTTP exchange against 127.0.0.1:port; returns the raw
/// response (status line, headers, body).
std::string HttpRequest(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // Connection: close terminates the response
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ServeEndToEnd, HttpMetricsAndHealthEndpoints) {
  // The process-level families carry live values only when the obs
  // registry is collecting (the CLI always enables it for serve).
  obs::EnableStats(true);
  obs::ResetStats();
  serve::ServerOptions options;
  options.http_port = 0;  // ephemeral; read back below
  options.corpus.data_dir = dir_.path() + "/data";
  options.corpus.fsync_journal = false;
  StartServer(std::move(options));
  ASSERT_GT(server_->http_port(), 0);
  int port = server_->http_port();

  serve::Client client = Connect();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.IngestInline("lib", Doc(i)).ok());
  }
  ASSERT_TRUE(client.Query("lib").ok());

  std::string health =
      HttpRequest(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

  std::string metrics =
      HttpRequest(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << metrics.substr(0, 200);
#ifdef CONDTD_NO_STATS
  // The kill-switch build compiles the process counters out: they render,
  // reading 0.
  const char* ingest_requests = "condtd_process_serve_ingest_requests_total 0";
#else
  const char* ingest_requests = "condtd_process_serve_ingest_requests_total 3";
#endif
  // Structural invariants of the exposition format: HELP/TYPE headers,
  // _total-suffixed counters, labelled samples, cumulative buckets
  // ending at +Inf with matching _sum/_count.
  for (const char* needle :
       {"# HELP condtd_corpora_open ", "# TYPE condtd_corpora_open gauge",
        "condtd_corpora_open 1",
        "# TYPE condtd_corpus_documents_total counter",
        "condtd_corpus_documents_total{corpus=\"lib\"} 3",
        "# TYPE condtd_corpus_ingest_latency_seconds histogram",
        "condtd_corpus_ingest_latency_seconds_bucket{corpus=\"lib\","
        "le=\"+Inf\"} 3",
        "condtd_corpus_ingest_latency_seconds_count{corpus=\"lib\"} 3",
        "condtd_corpus_ingest_latency_seconds_sum{corpus=\"lib\"} ",
        "condtd_corpus_queries_total{corpus=\"lib\"} 1",
        "# TYPE condtd_process_serve_ingest_requests_total counter",
        ingest_requests, "condtd_process_http_requests_total "}) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }

  std::string missing =
      HttpRequest(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  std::string posted =
      HttpRequest(port, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(posted.find("HTTP/1.1 405"), std::string::npos);

  // The wire protocol is untouched by HTTP traffic.
  EXPECT_TRUE(client.Ping().ok());
  server_->Stop();
  server_.reset();
  obs::EnableStats(false);
}

// ---------------------------------------------------------------------
// Daemon-level eviction

TEST_F(ServeEndToEnd, EvictionIsInvisibleOverTheWire) {
  auto now_ns = std::make_shared<std::atomic<int64_t>>(0);
  serve::ServerOptions options;
  options.corpus.data_dir = dir_.path() + "/data";
  options.corpus.fsync_journal = false;
  options.corpus_ttl_seconds = 60;
  options.clock_ns = [now_ns] { return now_ns->load(); };
  StartServer(std::move(options));
  serve::Client client = Connect();

  std::vector<std::string> docs;
  for (int i = 0; i < 4; ++i) docs.push_back(Doc(i));
  for (const std::string& doc : docs) {
    ASSERT_TRUE(client.IngestInline("lib", doc).ok());
  }
  Result<std::string> before = client.Query("lib");
  ASSERT_TRUE(before.ok());

  now_ns->fetch_add(int64_t{61} * 1000000000);
  ASSERT_EQ(server_->registry()->SweepNow(), 1);
  {
    // The evicted corpus no longer renders in STATS...
    Result<std::string> stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->find("\"lib\""), std::string::npos);
  }

  // ... but QUERY transparently re-opens it, byte-identical, and the
  // ack counters continue from where they left off.
  Result<std::string> after = client.Query("lib");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *before);
  EXPECT_EQ(*after, PrefixDtd(docs, docs.size()));

  Result<std::string> ack = client.IngestInline("lib", Doc(7));
  ASSERT_TRUE(ack.ok());
  EXPECT_NE(ack->find("documents=5"), std::string::npos) << *ack;
}

}  // namespace
}  // namespace condtd
