#ifndef CONDTD_INFER_ENGINE_H_
#define CONDTD_INFER_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "base/arena.h"
#include "base/status.h"
#include "base/ws_deque.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"

namespace condtd {

/// The one batch ingestion engine behind every corpus-shaped consumer:
/// the CLI's `infer` subcommand, the serve daemon's journal replay and
/// the benchmarks all feed documents through this class. Documents are
/// staged into *batches* (`batch_docs` per batch, document bytes
/// bump-allocated into the batch's arena) and every batch is opened,
/// lexed and folded in one place, ProcessBatch, into a shard-local
/// DtdInferrer (own alphabet, own summaries — no shared mutable state
/// and no locks on the parse/fold hot path).
///
/// `jobs` is only a thread count. At one job there is one shard and
/// every batch runs on the calling thread as it is dispatched; no
/// thread is spawned. At more jobs a fixed pool of workers, one per
/// shard, claims batches from a Chase-Lev-style work-stealing deque —
/// one hand-off per batch instead of per document, which is what lets
/// tiny-document corpora scale. `AddFile` enqueues just the path, so
/// whoever processes the batch performs the mmap/read, and file I/O
/// overlaps parsing across the pool. `Finish()` is the barrier: it
/// dispatches the partial batch, joins the pool and combines the shards
/// with a pairwise merge tree (a lone shard is moved into the result,
/// not copied); per-element inference then fans the independent
/// `LearnRegex` calls back out across infer_threads().
///
/// Determinism contract: for a well-formed corpus, the inferred DTD is
/// byte-identical to feeding the same documents in the same order to a
/// sequential DtdInferrer — for any job count, any batch size and any
/// scheduling. Two ingredients make that hold:
///  * at the barrier the merged alphabet is rebuilt by replaying each
///    document's newly-seen names in document-submission order, which
///    reproduces the sequential interning order exactly (symbol ids are
///    the tie-breakers throughout the learners), and
///  * the learner pipeline is invariant to summary merge order — every
///    ElementSummary field (SOA, CRX, the text datatype mask, the
///    distinct-word reservoir) is associative under
///    SummaryStore::MergeFrom, so the merge tree may combine shards in
///    any shape; `Gfa::FromSoa` canonicalizes state numbering (see those
///    classes).
/// The XSD and the SaveState text are byte-identical too: the datatype
/// mask is exact over the corpus, and SummaryStore::Save writes every
/// list in symbol-id order. (A word reservoir that overflows keeps the
/// words its shard saw first; learners refuse it.)
///
/// Error model: per-document failures (open failures, parse errors and
/// contained exceptions) never stop the pipeline; they are recorded
/// against the document's 0-based submission index and surfaced
/// together at Finish(), which returns OK only when every document
/// folded cleanly. Single-producer: call AddXml/AddBorrowedXml/AddFile,
/// LoadState and Finish from one thread.
class IngestEngine {
 public:
  struct Options {
    InferenceOptions inference;
    InputBuffer::Options input;
    /// Ingestion threads, and the learner fan-out of infer_threads().
    /// 1 (and anything lower) spawns no thread.
    int jobs = 1;
  };

  struct DocumentError {
    int64_t doc_index = 0;
    Status status;
  };

  explicit IngestEngine(Options options);
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Merges a previously saved summary state ahead of the corpus
  /// (Section 9 incremental pipelines): it loads into the first shard
  /// and its names intern ahead of document 0, exactly as in a
  /// sequential LoadState-then-AddXml run. May be called several times,
  /// but only before the first document; later calls fail with
  /// kFailedPrecondition.
  Status LoadState(std::string_view state);

  /// Enqueues one document by path. Whoever processes the batch opens
  /// it (mmap or buffered read per Options::input), so file I/O
  /// overlaps parsing on the other workers. Open failures surface in
  /// errors() exactly like parse failures.
  void AddFile(std::string_view path);

  /// Enqueues one document given as text (the bytes are copied into the
  /// staging batch's arena).
  void AddXml(std::string_view xml);

  /// Zero-copy variant of AddXml: the caller guarantees `xml` stays
  /// valid and unchanged until Finish() returns (e.g. an mmap'd corpus
  /// or a resident benchmark corpus).
  void AddBorrowedXml(std::string_view xml);

  /// The barrier: dispatches the partial batch, joins the pool, merges
  /// the shards deterministically (flushing their dedup caches) and
  /// reports the aggregate ingestion status. Idempotent; documents must
  /// not be added after. With exactly one failed document it returns
  /// that document's status; with several, an aggregate under the first
  /// failure's code naming the count and the lowest failed index.
  Status Finish();

  /// All ingestion failures, ascending by document index (valid after
  /// Finish()).
  const std::vector<DocumentError>& errors() const { return errors_; }

  /// The merged inferrer (valid after Finish()): infer from it, save
  /// its state, or adopt it into an IngestSession.
  DtdInferrer& inferrer() { return merged_; }

  /// Thread count for the per-element learner fan-out that matches this
  /// engine's configuration.
  int infer_threads() const { return num_threads_; }

  int64_t documents_added() const { return next_doc_index_; }

  /// Test seam: a hook invoked with each document's submission index
  /// just before the document is ingested, on the thread processing its
  /// batch. A test installs a throwing hook to exercise the exception
  /// containment (the exception is converted to a DocumentError and the
  /// remaining documents keep folding). Process-wide; pass nullptr to
  /// uninstall. Not for production use.
  using IngestFault = void (*)(int64_t doc_index);
  static void SetIngestFaultForTest(IngestFault fault);

 private:
  struct Shard {
    explicit Shard(const InferenceOptions& options)
        : inferrer(options), folder(&inferrer) {}
    DtdInferrer inferrer;
    /// Streaming fold driver over `inferrer`: folds documents without a
    /// DOM and dedups repeated words shard-locally. Flushed at the
    /// barrier before the shard merges.
    StreamingFolder folder;
    /// Alphabet ids [first, last) of this shard that were first interned
    /// while folding `doc_index` (-1: by LoadState, ahead of every
    /// document) — the replay log for rebuilding the sequential
    /// interning order at the barrier.
    struct NewNames {
      int64_t doc_index;
      int first;
      int last;
    };
    std::vector<NewNames> new_names;
    std::vector<DocumentError> errors;
    /// Documents this shard ingested (reported as the shard_docs_max
    /// gauge — a load-balance signal, scheduling-dependent by nature).
    int64_t docs_ingested = 0;
  };

  /// One document of a batch. `text` is the document bytes (a view into
  /// the batch arena, or borrowed caller storage) or, when `is_path` is
  /// set, the file path to open.
  struct WorkItem {
    std::string_view text;
    int64_t doc_index = 0;
    bool is_path = false;
  };

  /// A unit of scheduling: up to `batch_docs` documents plus the arena
  /// owning their copied bytes. Produced by the enqueue side, consumed
  /// (and freed) whole by ProcessBatch.
  struct Batch {
    std::vector<WorkItem> items;
    Arena arena;
  };

  void Enqueue(std::string_view text, bool is_path, bool copy);
  /// Hands the staging batch to the pool, or processes it right here
  /// when there is no pool.
  void DispatchPending();
  void Worker(Shard* shard);
  /// Ingests every document of `batch` into `shard`, then frees it.
  void ProcessBatch(Shard* shard, std::unique_ptr<Batch> batch);
  /// Closes the deque and joins the pool (no-op without one).
  void JoinWorkers();
  /// Flushes the shards, combines them into `merged_` and frees them.
  void MergeShards();

  static std::atomic<IngestFault> ingest_fault_;

  Options options_;
  int num_threads_;
  DtdInferrer merged_;

  /// Producer-owned staging batch; dispatched when full.
  std::unique_ptr<Batch> pending_;
  int64_t next_doc_index_ = 0;

  /// Single owner (the enqueue thread) pushes, workers steal. The
  /// mutex/condvar pair only parks idle workers — the deque itself is
  /// lock-free.
  WorkStealingDeque<Batch*> deque_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool closed_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Empty at one job: batches then run on the producer thread.
  std::vector<std::thread> workers_;
  bool finished_ = false;
  std::vector<DocumentError> errors_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_ENGINE_H_
