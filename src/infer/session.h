#ifndef CONDTD_INFER_SESSION_H_
#define CONDTD_INFER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"

namespace condtd {

/// What IngestSession::SnapshotChanged hands a reader that keeps what
/// it learned from each element between calls.
struct SummaryDelta {
  /// The schema root (SummaryStore::Root).
  Symbol root = kInvalidSymbol;
  /// Every element with its version (SummaryStore::version), ascending.
  std::vector<std::pair<Symbol, uint64_t>> versions;
  /// Copies of the summaries whose version the reader did not know,
  /// ascending.
  std::vector<std::pair<Symbol, ElementSummary>> changed;
};

/// Thread-safe incremental ingest session: one DtdInferrer plus its
/// streaming fold driver behind a mutex, with a consistent-snapshot
/// read API. This is the long-lived per-corpus substrate of the serve
/// daemon (Section 9's incremental extension running forever instead of
/// once): writers call Ingest whenever a document arrives, readers call
/// SnapshotChanged or Snapshot at any time and always observe a
/// document-boundary-consistent state — never a torn word multiset.
///
/// Consistency contract: Ingest holds the session lock for the whole
/// parse-and-fold of one document, and the streaming fold is
/// transactional per document (a failed parse contributes nothing), so
/// every snapshot equals the SaveState of a sequential DtdInferrer fed
/// some prefix of the successfully ingested document sequence — pinned
/// by tests/serve_test.cc. Because weighted dedup folds are exact and a
/// flush keeps every word's first-occurrence order, the mid-stream
/// Flush a snapshot (or a rejected document) performs never changes any
/// later state.
///
/// The session serializes all operations; it does not try to scale one
/// corpus across cores (per-corpus ordering is what makes replay
/// deterministic). Cross-corpus parallelism comes from the daemon's
/// worker pool running many sessions; batch-corpus parallelism from
/// IngestEngine (infer/engine.h), which shards across its `jobs`
/// threads and whose merged inferrer a session can adopt via MergeFrom.
///
/// Summaries enter the session in memory through DtdInferrer::MergeFrom
/// and leave it as copies (SnapshotChanged); the SaveState text is for
/// bytes that leave the process (snapshot files).
class IngestSession {
 public:
  explicit IngestSession(InferenceOptions options);

  IngestSession(const IngestSession&) = delete;
  IngestSession& operator=(const IngestSession&) = delete;

  const InferenceOptions& options() const { return options_; }

  /// Parses and folds one document through the session's streaming
  /// fold. On error the document contributes nothing, not even the
  /// names it interned or the words it completed: they would sit ahead
  /// of the names and words later documents bring, and the session
  /// would declare its elements, and number their states, in another
  /// order than a batch run over the acknowledged documents.
  /// Thread-safe.
  Status Ingest(std::string_view xml);

  /// Opens `path` (hardened InputBuffer: regular files only) and
  /// ingests its content. Thread-safe.
  Status IngestFile(const std::string& path,
                    const InputBuffer::Options& input);

  /// Merges another inferrer's summaries into the session (journal
  /// recovery, shard adoption). Counts as one epoch step. Thread-safe.
  void MergeFrom(const DtdInferrer& other);

  /// Captures a consistent snapshot as SaveState text, for writing to
  /// disk, and reports the epoch it corresponds to. Thread-safe.
  void Snapshot(std::string* state, int64_t* epoch);

  /// The incremental snapshot the serve daemon's QUERY reads. Under the
  /// lock it flushes, as Snapshot does; appends to `alphabet` the names
  /// interned since the caller last passed it (the session's alphabet
  /// only grows, so the caller's ids stay the session's); and fills
  /// `delta` with the root, every element's version and a copy of each
  /// summary whose version differs from `known[symbol]` (0, or past the
  /// end, for an element the caller has not learned). Ingestion waits
  /// only for the flush and those copies.
  void SnapshotChanged(const std::vector<uint64_t>& known,
                       Alphabet* alphabet, SummaryDelta* delta);

  /// Monotone version counter: bumps once per successful Ingest and
  /// MergeFrom. Readers that learn per element follow the element
  /// versions of SnapshotChanged instead.
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
  /// dedup cache). Thread-safe. Re-measures only the summaries written
  /// since the last call (StoreBytesMemo), so the daemon's per-corpus
  /// `condtd_corpus_bytes` gauge and memory cap cost each INGEST the
  /// elements it touched, not a walk of the whole state.
  size_t ApproxBytes() const;

  /// Calls `read` with the session's inferrer and fold under the
  /// session lock: the state as it stands, unflushed, for checks the
  /// snapshot API cannot make (tests/serve_test.cc holds ApproxBytes to
  /// a full walk through it).
  void Inspect(const std::function<void(const DtdInferrer&,
                                        const StreamingFolder&)>& read) const;

 private:
  InferenceOptions options_;
  mutable std::mutex mu_;
  DtdInferrer inferrer_;
  StreamingFolder folder_;
  /// ApproxBytes's per-summary memo; guarded by mu_.
  mutable StoreBytesMemo bytes_memo_;
  std::atomic<int64_t> epoch_{0};
  std::atomic<int64_t> documents_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace condtd

#endif  // CONDTD_INFER_SESSION_H_
