#ifndef CONDTD_INFER_ENGINE_H_
#define CONDTD_INFER_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/parallel.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"

namespace condtd {

/// The one batch ingestion engine behind every corpus-shaped consumer:
/// the CLI's `infer` subcommand and the serve daemon's journal replay
/// both feed documents through this class instead of hand-rolling the
/// sequential-vs-sharded split. At `jobs == 1` documents fold through a
/// sequential DtdInferrer + StreamingFolder; at any other value they
/// route through ParallelDtdInferrer's work-stealing batch scheduler,
/// whose shards run the same streaming fold. The inferred
/// DTD — and the SaveState text — is byte-identical either way (the
/// determinism contract pinned by parallel_test/differential_test), so
/// callers pick `jobs` purely on throughput.
///
/// Error model (both modes): per-document failures never stop the
/// pipeline; they are recorded against the document's 0-based
/// submission index and surfaced together at Finish(), which returns
/// OK only when every document folded cleanly. Single-producer like
/// the scheduler it wraps: feed it from one thread.
class IngestEngine {
 public:
  struct Options {
    InferenceOptions inference;
    InputBuffer::Options input;
    /// 1 = sequential fold; anything else = sharded scheduler
    /// (0 = hardware concurrency, as in ParallelDtdInferrer).
    int jobs = 1;
  };

  using DocumentError = ParallelDtdInferrer::DocumentError;

  explicit IngestEngine(Options options);

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Merges a previously saved summary state ahead of the corpus
  /// (Section 9 incremental pipelines). Call before adding documents.
  Status LoadState(std::string_view state);

  /// Enqueues one document by path; the engine performs the (hardened)
  /// open itself — worker-side in sharded mode, inline sequentially.
  void AddFile(const std::string& path);

  /// Enqueues one document given as text (copied in sharded mode).
  void AddXml(std::string_view xml);

  /// The barrier: drains the pipeline (sharded mode: dispatch + join +
  /// deterministic merge), flushes dedup caches, and reports the
  /// aggregate ingestion status. Idempotent.
  Status Finish();

  /// All ingestion failures, ascending by document index (valid after
  /// Finish()).
  const std::vector<DocumentError>& errors() const { return errors_; }

  /// The merged inferrer (valid after Finish()): infer from it, save
  /// its state, or adopt it into an IngestSession.
  DtdInferrer& inferrer();

  /// Thread count for the per-element learner fan-out that matches this
  /// engine's configuration.
  int infer_threads() const;

  int64_t documents_added() const { return next_doc_index_; }

 private:
  Options options_;
  /// The sequential fold target (jobs == 1); left empty when sharded.
  DtdInferrer sequential_;
  StreamingFolder folder_;
  std::optional<ParallelDtdInferrer> parallel_;
  std::vector<DocumentError> errors_;
  int64_t next_doc_index_ = 0;
  bool finished_ = false;
};

}  // namespace condtd

#endif  // CONDTD_INFER_ENGINE_H_
