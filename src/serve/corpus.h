#ifndef CONDTD_SERVE_CORPUS_H_
#define CONDTD_SERVE_CORPUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/session.h"
#include "io/input_buffer.h"
#include "obs/metrics.h"
#include "serve/journal.h"

namespace condtd {
namespace serve {

/// Point-in-time statistics for one corpus (STATS command).
struct CorpusStats {
  int64_t documents = 0;        ///< successfully ingested documents
  int64_t failed_documents = 0; ///< rejected documents (parse/open errors)
  int64_t bytes_ingested = 0;   ///< raw XML bytes of ingested documents
  int64_t queries = 0;
  int64_t query_cache_hits = 0; ///< QUERYs that re-learned no element
  int64_t query_memos = 0;      ///< (learner, format) memos held
  int64_t snapshots = 0;        ///< snapshot rotations since open
  int64_t compactions = 0;      ///< rotations forced by journal size
  int64_t replayed_documents = 0; ///< journal records replayed at open
  int64_t epoch = 0;            ///< session version counter
  int64_t generation = 0;       ///< current snapshot/journal generation
  int64_t journal_bytes = 0;    ///< size of the live journal file
  int64_t approx_bytes = 0;     ///< the condtd_corpus_bytes gauge
  obs::StageStats ingest_latency;
  obs::StageStats query_latency;
};

/// One tenant corpus in the serve daemon: a live IngestSession plus its
/// durability (generational snapshot + append-only journal) and its
/// per-element QUERY memo.
///
/// Durability protocol (docs/STATE_FORMAT.md, "serve durability"):
/// every Ingest folds the document into the session FIRST, appends it
/// to the journal SECOND, and only then acknowledges — so the journal
/// holds exactly the acknowledged document multiset, and recovery
/// (base snapshot LoadState + sequential journal re-fold, then one
/// in-memory MergeFrom into the session) reproduces the acknowledged
/// state byte-identically. WriteSnapshot rotates to a
/// fresh generation with an atomic CURRENT rename; a crash at any
/// instant leaves either the old generation fully intact or the new
/// one fully current — documents are never lost or double-folded.
///
/// Concurrency: one writer at a time (ingest_mu_) and one reader at a
/// time per memo (QueryMemo::mu); QUERYs for different learners or
/// formats run side by side. A reader copies the summaries that changed
/// since its memo last learned them (IngestSession::SnapshotChanged)
/// and learns them off the session lock, so long learner runs never
/// stall ingestion.
class Corpus {
 public:
  struct Options {
    InferenceOptions inference;
    InputBuffer::Options input;
    /// Daemon data directory; this corpus persists under
    /// `<data_dir>/<id>/`. Empty = ephemeral (no journal, no snapshots).
    std::string data_dir;
    /// fdatasync every journal append (crash-durability of every ack).
    bool fsync_journal = true;
    /// Auto-rotate a snapshot every N ingested documents (0 = only on
    /// explicit SNAPSHOT commands). Bounds replay time after a crash.
    int snapshot_every = 0;
    /// Auto-rotate a generation once the live journal exceeds this many
    /// bytes (0 = never). Unlike snapshot_every this bounds crash-replay
    /// time by journal *size*, independent of document count, so a
    /// corpus fed huge documents compacts just as reliably as one fed
    /// many small ones.
    int64_t compact_journal_bytes = 0;
    /// Refuse ingestion once ApproxBytes() exceeds this (0 = uncapped).
    int64_t max_corpus_bytes = 0;
    /// IngestEngine jobs for journal replay at open.
    int replay_jobs = 1;
  };

  /// Opens (and, when `options.data_dir` holds prior state, recovers)
  /// the corpus.
  static Result<std::unique_ptr<Corpus>> Open(std::string id,
                                              Options options);

  const std::string& id() const { return id_; }
  int64_t epoch() const { return session_.epoch(); }

  /// Folds one document and journals it. On any error the corpus state
  /// is unchanged (failed folds contribute nothing; fold-then-journal
  /// ordering means journal errors leave the document unacknowledged
  /// and freeze further ingestion until a snapshot re-establishes
  /// durability).
  Status Ingest(std::string_view doc);

  /// Reads `path` server-side (hardened open) and ingests it.
  Status IngestFile(const std::string& path);

  /// Learns a schema from a consistent snapshot of the current state.
  /// `algorithm` overrides the corpus learner by registry name (empty =
  /// corpus default); `xsd` selects XSD output instead of DTD. Each
  /// (learner, format) pair keeps a memo of what it learned per element
  /// and the summary version it learned it from; a QUERY re-learns only
  /// the elements whose version moved. The answer is byte-identical to
  /// a fresh inference over the same state. An unregistered learner
  /// name fails before any copy and creates no memo.
  Result<std::string> Query(const std::string& algorithm, bool xsd);

  /// Rotates the durability generation: writes a fresh snapshot of the
  /// current state, atomically repoints CURRENT at it, and starts an
  /// empty journal. Blocks writers for the duration. No-op (OK) for
  /// ephemeral corpora.
  Status WriteSnapshot();

  CorpusStats GetStats() const;

  /// Rough resident bytes of the retained inference state.
  size_t ApproxBytes() const { return session_.ApproxBytes(); }

  /// Raises the monotone counters (documents, epoch, queries, latency
  /// totals, ...) to at least the values in `floors`. The registry
  /// calls this on the corpus it re-opened after an eviction so the
  /// client-visible `documents=`/`epoch=` acks and STATS totals stay
  /// monotone — eviction must be invisible to clients.
  void RestoreBaseline(const CorpusStats& floors);

 private:
  Corpus(std::string id, Options options);

  Status RecoverLocked();
  Status WriteSnapshotLocked(bool compaction);
  /// Unlinks every generation file other than the live one, plus stray
  /// `*.tmp` staging files — the on-disk garbage a crash between the
  /// CURRENT rename and the old-generation unlink leaves behind.
  /// Caller holds ingest_mu_ (no rotation can race the scan).
  void CollectStaleGenerationsLocked();
  std::string DirPath() const;
  std::string SnapshotPath(int64_t generation) const;
  std::string JournalPath(int64_t generation) const;
  std::string CurrentPath() const;
  bool durable() const { return !options_.data_dir.empty(); }

  const std::string id_;
  const Options options_;
  IngestSession session_;

  /// Serializes writers and generation rotation.
  mutable std::mutex ingest_mu_;
  Journal journal_;
  int64_t generation_ = 0;
  int64_t next_seq_ = 0;
  int64_t docs_since_snapshot_ = 0;
  int64_t replayed_documents_ = 0;
  bool journal_broken_ = false;

  /// What QUERY learned for one (learner, format) pair, indexed by
  /// symbol: the summary version each element was learned at (0 =
  /// never) and what it contributes to the schema.
  struct QueryMemo {
    explicit QueryMemo(const InferenceOptions& inference)
        : learner(inference) {}
    /// Serializes the QUERYs that share this memo, so a second one
    /// finds the first one's results. Guards the fields below.
    std::mutex mu;
    /// Holds no summaries; its learner and options learn the elements.
    DtdInferrer learner;
    /// The session's names as of this memo's last QUERY; ids equal the
    /// session's.
    Alphabet names;
    std::vector<uint64_t> versions;
    std::vector<ElementSchema> schemas;
  };

  /// Guards the map, not the memos in it (map nodes never move).
  std::mutex memos_mu_;
  /// At most one per registered learner and format.
  std::map<std::string, QueryMemo> memos_;

  /// Guards the non-session counters.
  mutable std::mutex stats_mu_;
  int64_t queries_ = 0;
  int64_t query_cache_hits_ = 0;
  int64_t query_memos_ = 0;
  int64_t snapshots_ = 0;
  int64_t compactions_ = 0;
  obs::StageStats ingest_latency_;
  obs::StageStats query_latency_;
};

}  // namespace serve
}  // namespace condtd

#endif  // CONDTD_SERVE_CORPUS_H_
