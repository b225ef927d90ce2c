#ifndef CONDTD_INFER_SESSION_H_
#define CONDTD_INFER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"

namespace condtd {

/// Thread-safe incremental ingest session: one DtdInferrer plus its
/// streaming fold driver behind a mutex, with a consistent-snapshot
/// read API. This is the long-lived per-corpus substrate of the serve
/// daemon (Section 9's incremental extension running forever instead of
/// once): writers call Ingest whenever a document arrives, readers call
/// Snapshot at any time and always observe a document-boundary-
/// consistent state — never a torn word multiset.
///
/// Consistency contract: Ingest holds the session lock for the whole
/// parse-and-fold of one document, and the streaming fold is
/// transactional per document (a failed parse contributes nothing), so
/// every snapshot equals the SaveState of a sequential DtdInferrer fed
/// some prefix of the successfully ingested document sequence — pinned
/// by tests/serve_test.cc. Because weighted dedup folds are exact,
/// the mid-stream Flush a snapshot performs never changes any later
/// inferred DTD.
///
/// The session serializes all operations; it does not try to scale one
/// corpus across cores (per-corpus ordering is what makes replay
/// deterministic). Cross-corpus parallelism comes from the daemon's
/// worker pool running many sessions; batch-corpus parallelism from
/// IngestEngine (infer/engine.h), which shards across its `jobs`
/// threads and whose merged inferrer a session can adopt via MergeFrom.
///
/// Summaries move between inferrers in memory only through
/// DtdInferrer::MergeFrom; the SaveState text is for bytes that leave
/// the process (snapshot files).
class IngestSession {
 public:
  explicit IngestSession(InferenceOptions options);

  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;

  const InferenceOptions& options() const { return options_; }

  /// Parses and folds one document through the session's streaming
  /// fold. On error the document contributes nothing. Thread-safe.
  Status Ingest(std::string_view xml);

  /// Opens `path` (hardened InputBuffer: regular files only) and
  /// ingests its content. Thread-safe.
  Status IngestFile(const std::string& path,
                    const InputBuffer::Options& input);

  /// Merges another inferrer's summaries into the session (journal
  /// recovery, shard adoption). Counts as one epoch step. Thread-safe.
  void MergeFrom(const DtdInferrer& other);

  /// Captures a consistent snapshot: merges everything ingested so far
  /// into `reader` (normally a fresh inferrer, which then answers for
  /// that document prefix) and reports the epoch it corresponds to.
  /// Thread-safe; blocks ingestion only for the flush-and-merge, not for
  /// any learning the reader does afterwards.
  void Snapshot(DtdInferrer* reader, int64_t* epoch);

  /// The same snapshot as SaveState text, for writing to disk.
  void Snapshot(std::string* state, int64_t* epoch);

  /// Monotone version counter: bumps once per successful Ingest and
  /// MergeFrom. Readers use it to cache learned schemas per version.
  int64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Raises the monotone public counters to at least the given values.
  /// The serve registry calls this after an evicted corpus is
  /// transparently re-opened: recovery rebuilds the folded state but
  /// starts the counters from zero, and without the floors a client
  /// would watch `documents=`/`epoch=` jump backwards across an
  /// eviction it was never supposed to notice. Values below the current
  /// counters are ignored (floors never decrease anything).
  void RestoreCounterFloors(int64_t documents, int64_t failed,
                            int64_t bytes, int64_t epoch);

  int64_t documents() const {
    return documents_.load(std::memory_order_relaxed);
  }
  int64_t failed_documents() const {
    return failed_.load(std::memory_order_relaxed);
  }
  int64_t bytes_ingested() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Rough resident bytes of the retained state (summaries + alphabet +
  /// dedup cache). Thread-safe; O(elements). Backs the daemon's
  /// per-corpus `condtd_corpus_bytes` gauge and memory cap.
  size_t ApproxBytes() const;

 private:
  InferenceOptions options_;
  mutable std::mutex mu_;
  DtdInferrer inferrer_;
  StreamingFolder folder_;
  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> documents_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace condtd

#endif  // CONDTD_INFER_SESSION_H_
