#ifndef CONDTD_INFER_PARALLEL_H_
#define CONDTD_INFER_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/arena.h"
#include "base/status.h"
#include "base/ws_deque.h"
#include "dtd/model.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"

namespace condtd {

/// Corpus-scale front end over DtdInferrer: a fixed pool of worker
/// threads, each owning a shard-local DtdInferrer (own alphabet, own
/// summaries — no shared mutable state and no locks on the parse/fold
/// hot path). Documents are staged into *batches* (`batch_docs` per
/// batch, document bytes bump-allocated into the batch's arena) that
/// workers claim from a Chase-Lev-style work-stealing deque — one
/// hand-off per batch instead of per document, which is what lets
/// tiny-document corpora scale. `AddFile` enqueues just the path, so
/// the claiming worker performs the mmap/read itself and file I/O
/// overlaps parsing across the pool. `Finish()` is the barrier: it
/// dispatches the partial batch, joins the pool and combines the shards
/// with a pairwise merge tree; per-element inference then fans the
/// independent `LearnRegex` calls back out across the same thread
/// count.
///
/// Determinism contract: for a well-formed corpus, the inferred DTD is
/// byte-identical to feeding the same documents in the same order to a
/// sequential DtdInferrer — for any thread count, any batch size and
/// any scheduling. Two ingredients make that hold:
///  * at the barrier the merged alphabet is rebuilt by replaying each
///    document's newly-seen names in document-submission order, which
///    reproduces the sequential interning order exactly (symbol ids are
///    the tie-breakers throughout the learners), and
///  * the learner pipeline is invariant to summary merge order — every
///    ElementSummary field (SOA, CRX, the distinct-word reservoir) is
///    associative under SummaryStore::MergeFrom, so the merge tree may
///    combine shards in any shape; `Gfa::FromSoa` canonicalizes state
///    numbering (see those classes).
/// The one caveat is the XSD datatype heuristic: which `max_text_samples`
/// text snippets are retained can differ from the sequential run (each
/// shard keeps its own first samples), so `InferXsd` simple-type picks
/// may differ on corpora with heterogeneous text; the DTD never does.
///
/// Thread model: the enqueue side (AddXml/AddBorrowedXml/AddFile,
/// LoadState, Finish) is single-producer — call it from one thread.
class ParallelDtdInferrer {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ParallelDtdInferrer(InferenceOptions options = {},
                               int num_threads = 0);
  ~ParallelDtdInferrer();

  ParallelDtdInferrer(const ParallelDtdInferrer&) = delete;
  ParallelDtdInferrer& operator=(const ParallelDtdInferrer&) = delete;

  int num_threads() const { return num_threads_; }

  /// How workers open documents enqueued with AddFile (mmap threshold,
  /// --no-mmap). Set before the first AddFile call.
  void set_input_options(const InputBuffer::Options& options) {
    input_options_ = options;
  }

  /// Enqueues one XML document for ingestion by the pool (bytes are
  /// copied into the staging batch's arena). Parse failures do not stop
  /// the pipeline; they surface in errors() after Finish(), keyed by
  /// the document's 0-based submission index.
  void AddXml(std::string_view xml);

  /// Zero-copy variant of AddXml: the caller guarantees `xml` stays
  /// valid and unchanged until Finish() returns (e.g. an mmap'd corpus
  /// or a resident benchmark corpus).
  void AddBorrowedXml(std::string_view xml);

  /// Enqueues a document by path. The worker that claims the batch
  /// opens it (mmap or buffered read per set_input_options), so file
  /// I/O overlaps parsing on the other workers. Open failures surface
  /// in errors() exactly like parse failures.
  void AddFile(std::string_view path);

  /// Loads a previously saved summary state into the merge target (the
  /// incremental pipelines of Section 9). Must be called before
  /// Finish(); loaded names intern ahead of the corpus, matching a
  /// sequential LoadState-then-AddXml run.
  Status LoadState(std::string_view serialized);

  /// The barrier: dispatches the partial batch, closes the deque, joins
  /// the pool, merges the shards deterministically. Idempotent; AddXml
  /// must not be called after. Returns OK when every document folded
  /// cleanly. With exactly one failed document it returns that
  /// document's status; with several it returns an aggregate (first
  /// failure's code, message naming the failure count and the lowest
  /// failed index) — the full per-document list is in errors() either
  /// way.
  Status Finish();

  struct DocumentError {
    int64_t doc_index = 0;
    Status status;
  };
  /// All ingestion failures (open failures, parse errors and contained
  /// worker exceptions), ascending by document index (valid after
  /// Finish()).
  const std::vector<DocumentError>& errors() const { return errors_; }

  /// Test seam: a hook invoked with each document's submission index
  /// just before the document is ingested, on the worker thread. A test
  /// installs a throwing hook to exercise the pool's exception
  /// containment (the exception is converted to a DocumentError and the
  /// remaining documents keep folding). Process-wide; pass nullptr to
  /// uninstall. Not for production use.
  using IngestFault = void (*)(int64_t doc_index);
  static void SetIngestFaultForTest(IngestFault fault);

  /// Finishes (if not already finished) and infers, running the
  /// per-element learners across the pool's thread count. Fails if any
  /// document failed to parse — callers that want to keep going can
  /// inspect errors() and use merged() directly.
  Result<Dtd> InferDtd();
  Result<std::string> InferXsd(bool numeric_predicates = true);

  /// The merged inferrer (valid after Finish()): SaveState, alphabet
  /// access, or keep folding sequentially.
  DtdInferrer* merged() { return &merged_; }

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
    /// while folding `doc_index` — the replay log for rebuilding the
    /// sequential interning order at the barrier.
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
  /// set, the file path to open worker-side.
  struct WorkItem {
    std::string_view text;
    int64_t doc_index = 0;
    bool is_path = false;
  };

  /// A unit of scheduling: up to `batch_docs` documents plus the arena
  /// owning their copied bytes. Produced by the enqueue side, consumed
  /// (and freed) whole by the worker that steals it.
  struct Batch {
    std::vector<WorkItem> items;
    Arena arena;
  };

  void Enqueue(std::string_view text, bool is_path, bool copy);
  /// Publishes the staging batch to the deque and wakes a worker.
  void DispatchPending();
  void Worker(Shard* shard);
  /// Ingests every document of `batch` into `shard`, then frees it.
  void ProcessBatch(Shard* shard, Batch* batch);
  /// The status Finish() reports for the current errors_ list.
  Status AggregateStatus() const;

  static std::atomic<IngestFault> ingest_fault_;

  InferenceOptions options_;
  int num_threads_;
  DtdInferrer merged_;
  InputBuffer::Options input_options_;

  /// Producer-owned staging batch; published when full.
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
  std::vector<std::thread> workers_;
  bool finished_ = false;
  std::vector<DocumentError> errors_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_PARALLEL_H_
