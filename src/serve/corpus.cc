#include "serve/corpus.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <utility>
#include <vector>

#include "base/file.h"
#include "base/strings.h"
#include "dtd/dtd_writer.h"
#include "infer/engine.h"
#include "learn/learner.h"
#include "obs/metrics.h"

namespace condtd {
namespace serve {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Durably replaces `path`: writes `content` to a sibling tmp file,
/// fsyncs it, renames it into place, and fsyncs the directory so the
/// rename itself survives a crash.
Status AtomicWriteFile(const std::string& path, std::string_view content) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + tmp + ": " +
                            ::strerror(errno));
  }
  std::string_view rest = content;
  while (!rest.empty()) {
    ssize_t wrote = ::write(fd, rest.data(), rest.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("cannot write " + tmp + ": " +
                              ::strerror(saved));
    }
    rest.remove_prefix(static_cast<size_t>(wrote));
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("cannot sync " + tmp + ": " +
                            ::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + ": " +
                            ::strerror(saved));
  }
  std::string dir = path;
  size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

}  // namespace

Corpus::Corpus(std::string id, Options options)
    : id_(std::move(id)),
      options_(std::move(options)),
      session_(options_.inference) {}

Result<std::unique_ptr<Corpus>> Corpus::Open(std::string id,
                                             Options options) {
  std::unique_ptr<Corpus> corpus(new Corpus(std::move(id),
                                            std::move(options)));
  if (corpus->durable()) {
    CONDTD_RETURN_IF_ERROR(EnsureDirectory(corpus->DirPath()));
    CONDTD_RETURN_IF_ERROR(corpus->RecoverLocked());
  }
  return corpus;
}

std::string Corpus::DirPath() const {
  return options_.data_dir + "/" + id_;
}

std::string Corpus::SnapshotPath(int64_t generation) const {
  return DirPath() + "/snapshot-" + std::to_string(generation) + ".state";
}

std::string Corpus::JournalPath(int64_t generation) const {
  return DirPath() + "/journal-" + std::to_string(generation) + ".log";
}

std::string Corpus::CurrentPath() const { return DirPath() + "/CURRENT"; }

Status Corpus::RecoverLocked() {
  obs::StageSpan span(obs::Stage::kJournalReplay);
  // CURRENT names the live generation; absent on first open.
  generation_ = 0;
  if (FileExists(CurrentPath())) {
    Result<std::string> current = ReadFileToString(CurrentPath());
    if (!current.ok()) return current.status();
    errno = 0;
    char* end = nullptr;
    long long generation = ::strtoll(current->c_str(), &end, 10);
    if (errno != 0 || end == current->c_str() || generation < 0) {
      return Status::Internal("corpus " + id_ + ": malformed CURRENT: " +
                              *current);
    }
    generation_ = generation;
  }

  // Rebuild the acknowledged state: base snapshot, then the journal's
  // documents in order, through the shared batch ingestion engine (at
  // replay_jobs == 1 every batch folds on this thread; the DTD is
  // byte-identical at any job count).
  IngestEngine::Options engine_options;
  engine_options.inference = options_.inference;
  engine_options.input = options_.input;
  engine_options.jobs = options_.replay_jobs;
  IngestEngine engine(engine_options);

  if (FileExists(SnapshotPath(generation_))) {
    Result<std::string> snapshot = ReadFileToString(SnapshotPath(generation_));
    if (!snapshot.ok()) return snapshot.status();
    CONDTD_RETURN_IF_ERROR(engine.LoadState(*snapshot));
  }

  int64_t max_seq = -1;
  Result<Journal::ReplayStats> replayed = Journal::Replay(
      JournalPath(generation_),
      [&engine, &max_seq](int64_t seq, std::string_view doc) {
        if (seq > max_seq) max_seq = seq;
        engine.AddXml(doc);
        return Status::OK();
      });
  if (!replayed.ok()) return replayed.status();
  // A journaled document was acknowledged, so it folded cleanly before
  // the crash; the fold is deterministic, so a replay failure means the
  // journal (or code) is corrupt — refuse to open rather than serve a
  // silently different corpus.
  Status folded = engine.Finish();
  if (!folded.ok()) {
    return Status::Internal("corpus " + id_ +
                            ": journal replay diverged: " +
                            folded.ToString());
  }
  if (replayed->records > 0 || FileExists(SnapshotPath(generation_))) {
    session_.MergeFrom(engine.inferrer());
  }
  replayed_documents_ = replayed->records;
  next_seq_ = max_seq + 1;

  Result<Journal> journal =
      Journal::Open(JournalPath(generation_), options_.fsync_journal);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  // A crash between a rotation's CURRENT rename and its old-generation
  // unlink leaves unreachable files; reclaim them now that the live
  // generation is known.
  CollectStaleGenerationsLocked();
  return Status::OK();
}

Status Corpus::Ingest(std::string_view doc) {
  obs::StageSpan span(obs::Stage::kServeIngest);
  int64_t start_ns = NowNs();
  Status status;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (journal_broken_) {
      status = Status::FailedPrecondition(
          "corpus " + id_ +
          ": journal append failed earlier; SNAPSHOT to restore "
          "durability");
    } else if (options_.max_corpus_bytes > 0 &&
               static_cast<int64_t>(session_.ApproxBytes()) >
                   options_.max_corpus_bytes) {
      status = Status::ResourceExhausted(
          "corpus " + id_ + ": retained state exceeds " +
          std::to_string(options_.max_corpus_bytes) + " bytes");
    } else {
      // Fold first, journal second, acknowledge last: the journal holds
      // exactly the acknowledged multiset.
      status = session_.Ingest(doc);
      if (status.ok() && durable()) {
        Status appended = journal_.Append(next_seq_, doc);
        if (!appended.ok()) {
          // The fold is in memory but not durable; freeze ingestion so
          // the journal never silently under-represents acknowledged
          // documents. A successful snapshot rotation unfreezes.
          journal_broken_ = true;
          status = appended;
        }
      }
      if (status.ok()) {
        ++next_seq_;
        ++docs_since_snapshot_;
        bool by_count = options_.snapshot_every > 0 &&
                        docs_since_snapshot_ >= options_.snapshot_every;
        // Size-triggered compaction: bound crash-replay time by journal
        // bytes, independent of how many documents produced them.
        bool by_size = !by_count && options_.compact_journal_bytes > 0 &&
                       durable() && journal_.is_open() &&
                       journal_.bytes() > options_.compact_journal_bytes;
        if (by_count || by_size) {
          // Durability housekeeping; the ingest itself already
          // succeeded, so a failed rotation is not the client's error.
          (void)WriteSnapshotLocked(/*compaction=*/by_size);
        }
      }
    }
  }
  obs::SchedAdd(obs::SchedCounter::kServeIngestRequests, 1);
  // ApproxBytes re-measures only the summaries this INGEST wrote, but
  // still takes the session lock; a disabled gauge need not pay for it.
  if (obs::StatsEnabled()) {
    obs::GaugeMax(obs::Gauge::kCorpusBytesPeak,
                  static_cast<int64_t>(session_.ApproxBytes()));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ingest_latency_.Record(NowNs() - start_ns);
  return status;
}

Status Corpus::IngestFile(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return Ingest(*content);
}

Result<std::string> Corpus::Query(const std::string& algorithm, bool xsd) {
  obs::StageSpan span(obs::Stage::kServeQuery);
  int64_t start_ns = NowNs();
  obs::SchedAdd(obs::SchedCounter::kServeQueryRequests, 1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++queries_;
  }
  const std::string& learner =
      algorithm.empty() ? options_.inference.learner : algorithm;
  // A client inventing learner names must not grow the daemon: an
  // unknown name is refused before any copy and gets no memo.
  if (LearnerRegistry::Global().Find(learner) == nullptr) {
    return LearnerRegistry::Global().UnknownName(learner);
  }

  QueryMemo* found = nullptr;
  {
    std::lock_guard<std::mutex> memos_lock(memos_mu_);
    std::string key = (xsd ? "xsd:" : "dtd:") + learner;
    auto memo_it = memos_.find(key);
    if (memo_it == memos_.end()) {
      InferenceOptions inference = options_.inference;
      inference.learner = learner;
      memo_it = memos_.try_emplace(std::move(key), inference).first;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++query_memos_;
    }
    found = &memo_it->second;
  }
  QueryMemo& memo = *found;
  std::lock_guard<std::mutex> memo_lock(memo.mu);

  // Copy only what moved since this memo last learned it; everything
  // else is answered from the memo. Learning runs off the session lock,
  // while writers keep folding.
  SummaryDelta delta;
  {
    obs::StageSpan copy_span(obs::Stage::kQueryCopy);
    session_.SnapshotChanged(memo.versions, &memo.names, &delta);
  }
  if (!delta.versions.empty()) {
    size_t size = static_cast<size_t>(delta.versions.back().first) + 1;
    if (memo.versions.size() < size) {
      memo.versions.resize(size, 0);
      memo.schemas.resize(size);
    }
  }
  for (const auto& [symbol, summary] : delta.changed) {
    memo.schemas[symbol] = memo.learner.InferElement(summary, xsd);
  }
  std::vector<ElementSchemaRef> elements;
  elements.reserve(delta.versions.size());
  for (const auto& [symbol, version] : delta.versions) {
    memo.versions[symbol] = version;
    elements.emplace_back(symbol, &memo.schemas[symbol]);
  }
  const int64_t relearned = static_cast<int64_t>(delta.changed.size());
  obs::SchedAdd(obs::SchedCounter::kQueryElementsRelearned, relearned);
  obs::SchedAdd(obs::SchedCounter::kQueryElementsReused,
                static_cast<int64_t>(elements.size()) - relearned);

  std::string schema;
  if (xsd) {
    Result<std::string> rendered =
        DtdInferrer::AssembleXsd(delta.root, elements, memo.names);
    if (!rendered.ok()) return rendered.status();
    schema = std::move(*rendered);
  } else {
    Result<Dtd> dtd = DtdInferrer::AssembleDtd(delta.root, elements);
    if (!dtd.ok()) return dtd.status();
    obs::StageSpan emit_span(obs::Stage::kEmit);
    schema = WriteDtd(*dtd, memo.names);
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  if (relearned == 0) {
    ++query_cache_hits_;
    obs::SchedAdd(obs::SchedCounter::kServeQueryCacheHits, 1);
  }
  query_latency_.Record(NowNs() - start_ns);
  return schema;
}

Status Corpus::WriteSnapshot() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return WriteSnapshotLocked(/*compaction=*/false);
}

Status Corpus::WriteSnapshotLocked(bool compaction) {
  if (!durable()) return Status::OK();
  // Capture the state while holding ingest_mu_, so no append can land
  // in the old journal after the state it belongs to was captured.
  std::string state;
  session_.Snapshot(&state, nullptr);
  int64_t next_generation = generation_ + 1;

  CONDTD_RETURN_IF_ERROR(AtomicWriteFile(SnapshotPath(next_generation),
                                         state));
  // Start the new journal empty before repointing CURRENT, so a reader
  // of the new generation can never see the old journal's documents.
  Result<Journal> fresh =
      Journal::Open(JournalPath(next_generation), options_.fsync_journal);
  if (!fresh.ok()) return fresh.status();
  // The commit point: after this rename the new generation is current;
  // before it the old snapshot + full old journal are still intact.
  CONDTD_RETURN_IF_ERROR(
      AtomicWriteFile(CurrentPath(), std::to_string(next_generation)));

  generation_ = next_generation;
  journal_ = std::move(*fresh);
  journal_broken_ = false;
  docs_since_snapshot_ = 0;
  // Everything but the live generation is unreachable now; reclaim it
  // (best-effort). Scanning instead of unlinking G-1 specifically also
  // collects orphans an earlier crash left behind.
  CollectStaleGenerationsLocked();

  obs::SchedAdd(obs::SchedCounter::kSnapshotsWritten, 1);
  if (compaction) {
    obs::SchedAdd(obs::SchedCounter::kJournalCompactions, 1);
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++snapshots_;
  if (compaction) ++compactions_;
  return Status::OK();
}

void Corpus::CollectStaleGenerationsLocked() {
  DIR* dir = ::opendir(DirPath().c_str());
  if (dir == nullptr) return;
  std::vector<std::string> stale;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string_view name = entry->d_name;
    bool remove = false;
    if (EndsWith(name, ".tmp")) {
      // Staging files (snapshot/CURRENT temp copies) are only ever live
      // inside AtomicWriteFile, which runs under ingest_mu_ — anything
      // visible here is a crash leftover.
      remove = true;
    } else {
      std::string_view digits;
      if (StartsWith(name, "snapshot-") && EndsWith(name, ".state")) {
        digits = name.substr(9, name.size() - 9 - 6);
      } else if (StartsWith(name, "journal-") && EndsWith(name, ".log")) {
        digits = name.substr(8, name.size() - 8 - 4);
      } else {
        continue;  // CURRENT, dot entries, foreign files: leave alone
      }
      int64_t generation = 0;
      remove = ParseInt64(digits, &generation) && generation != generation_;
    }
    if (remove) stale.push_back(DirPath() + "/" + std::string(name));
  }
  ::closedir(dir);
  for (const std::string& path : stale) ::unlink(path.c_str());
}

void Corpus::RestoreBaseline(const CorpusStats& floors) {
  session_.RestoreCounterFloors(floors.documents, floors.failed_documents,
                                floors.bytes_ingested, floors.epoch);
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (queries_ < floors.queries) queries_ = floors.queries;
  if (query_cache_hits_ < floors.query_cache_hits) {
    query_cache_hits_ = floors.query_cache_hits;
  }
  if (snapshots_ < floors.snapshots) snapshots_ = floors.snapshots;
  if (compactions_ < floors.compactions) compactions_ = floors.compactions;
  if (ingest_latency_.count < floors.ingest_latency.count) {
    ingest_latency_ = floors.ingest_latency;
  }
  if (query_latency_.count < floors.query_latency.count) {
    query_latency_ = floors.query_latency;
  }
}

CorpusStats Corpus::GetStats() const {
  CorpusStats stats;
  stats.documents = session_.documents();
  stats.failed_documents = session_.failed_documents();
  stats.bytes_ingested = session_.bytes_ingested();
  stats.epoch = session_.epoch();
  stats.approx_bytes = static_cast<int64_t>(session_.ApproxBytes());
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    stats.generation = generation_;
    stats.journal_bytes = journal_.is_open() ? journal_.bytes() : 0;
    stats.replayed_documents = replayed_documents_;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.queries = queries_;
  stats.query_cache_hits = query_cache_hits_;
  stats.query_memos = query_memos_;
  stats.snapshots = snapshots_;
  stats.compactions = compactions_;
  stats.ingest_latency = ingest_latency_;
  stats.query_latency = query_latency_;
  return stats;
}

}  // namespace serve
}  // namespace condtd
