#ifndef CONDTD_OBS_METRICS_H_
#define CONDTD_OBS_METRICS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef CONDTD_NO_STATS
#include <atomic>
#endif

namespace condtd {
namespace obs {

/// Process-wide observability registry: counters, gauges and
/// fixed-bucket latency histograms over the inference pipeline, plus
/// RAII timing spans for each pipeline stage.
///
/// Design constraints (see docs/ALGORITHMS.md, "Observability"):
///  * Disabled by default. Every instrumentation point is a single
///    relaxed atomic-bool load plus a predicted branch when stats are
///    off, so the ingest hot path stays within its performance budget.
///  * Enabled, a metric costs O(1) per request or per batch, not per
///    word or per event: the hot loops tally in plain members and
///    publish once per document (lexer and fold counters) or once per
///    dedup flush (the fold stages' spans and counters).
///  * Writers never share cache lines across threads on purpose: the
///    registry is backed by `kMetricShards` cache-line-padded slots of
///    relaxed atomics; each thread hashes to one slot. Snapshots sum
///    the slots. Everything is an atomic, so the TSan lane stays clean.
///  * Compile-time kill switch: building with -DCONDTD_NO_STATS turns
///    every inline entry point into an empty function (snapshots then
///    report all-zero with `enabled == false`), so instrumented call
///    sites compile unchanged.
///
/// Determinism contract: counters in `Counter` depend only on the
/// corpus and the configuration — they are byte-identical at any
/// `--jobs` value and under any scheduling. Quantities that legitimately
/// vary with shard layout (dedup hit/miss splits, merge counts) live in
/// `SchedCounter`; wall-clock time lives in the stage/learner tables and
/// is never part of a determinism check. tests/obs_test.cc pins this.

/// Deterministic hot-path counters (corpus-defined; identical across
/// thread counts).
enum class Counter : int {
  kBytesIngested = 0,     ///< raw XML bytes handed to an ingestion driver
  kDocumentsIngested,     ///< documents folded cleanly
  kDocumentsFailed,       ///< documents rejected (parse error or exception)
  kStartTags,             ///< SAX start-element events lexed
  kTextEvents,            ///< SAX significant-text events lexed
  kAttributesSeen,        ///< attributes lexed on start tags
  kEntityDecodes,         ///< text/attribute runs that needed entity decoding
  kWordsFolded,           ///< element occurrences folded (child words)
  kChildWordFolds,        ///< summary folds, weighted by multiplicity
  kRewriteApplications,   ///< Section 5 rewrite-rule applications
  kRepairDisjunctions,    ///< iDTD enable-disjunction repairs applied
  kRepairOptionals,       ///< iDTD enable-optional repairs applied
  kRepairFallbacks,       ///< iDTD full-merge fallbacks taken
  kNoisyEdgesDropped,     ///< low-support edges removed (Section 9 noise)
  kCrxInferCalls,         ///< CRX Algorithm 3 runs
  kCrxFactors,            ///< CHARE factors emitted across CRX runs
  kElementsLearned,       ///< per-element learner dispatches
  kNumCounters,
};

/// Scheduling-dependent counters: exact, but their split varies with
/// the shard layout (`--jobs`), so they are reported separately and
/// excluded from cross-jobs determinism checks.
enum class SchedCounter : int {
  kDedupHits = 0,       ///< word-multiset cache hits (per-shard caches)
  kDedupMisses,         ///< distinct (element, word) pairs first seen
  kDedupFlushes,        ///< dedup cache drains
  kWeightedFoldOps,     ///< weighted folds applied at flush
  kShardMerges,         ///< shard stores merged at the barrier
  kSummaryMerges,       ///< per-element summaries merged
  kWorkerExceptions,    ///< exceptions contained by the worker pool
  kBatchesDispatched,   ///< work batches published by the producer
  kBatchSteals,         ///< batches claimed from the work-stealing deque
  kMmapReads,           ///< documents opened through an mmap InputBuffer
  kBufferedReads,       ///< documents opened through the buffered fallback
  kDedupProbeSteps,     ///< flat dedup-cache probe-loop iterations
  kDenseFoldHits,       ///< summary folds taken through the dense kernels
  kDenseFoldFallbacks,  ///< summary folds above the dense-ID window
  kServeIngestRequests,  ///< daemon INGEST commands handled
  kServeQueryRequests,   ///< daemon QUERY commands handled
  kServeQueryCacheHits,  ///< QUERYs answered without re-learning any element
  kServeRequestErrors,   ///< daemon commands answered with ERR
  kJournalAppends,       ///< durable journal records written
  kJournalReplayedDocs,  ///< documents re-folded during crash recovery
  kSnapshotsWritten,     ///< corpus snapshots persisted
  kJournalCompactions,   ///< rotations forced by --compact-journal-bytes
  kCorporaEvicted,       ///< idle corpora snapshotted-and-closed
  kHttpRequests,         ///< /metrics + /healthz requests served
  kQueryElementsRelearned,  ///< elements a QUERY learned (summary changed)
  kQueryElementsReused,     ///< elements a QUERY took from its memo
  kNumSchedCounters,
};

enum class Gauge : int {
  kJobs = 0,           ///< configured thread count (set)
  kDedupCachePeak,     ///< max distinct words resident in one cache (max)
  kShardDocsMax,       ///< most documents ingested by one shard (max)
  kBatchDocs,          ///< configured scheduler batch size (set)
  kArenaBytesPeak,     ///< max bump-arena footprint observed (max)
  kDedupCacheBytesPeak,  ///< max dedup-cache resident bytes in one shard (max)
  kCorporaOpen,        ///< live corpora in the serve registry (set)
  kCorpusBytesPeak,    ///< max ApproxBytes observed for one corpus (max)
  kNumGauges,
};

/// Pipeline stages with RAII timing spans. Wall-clock only — stage
/// counts and times are reported but never part of determinism checks
/// (span placement differs between the DOM and streaming drivers, and
/// flush timing is shard-local).
enum class Stage : int {
  kIoRead = 0,      ///< document input (mmap setup or buffered read)
  kLexParse,        ///< per-document parse (+ in-stream fold for SAX)
  kEntityDecode,    ///< XML entity decoding runs
  kWordFold,        ///< one dedup flush's weighted folds (per batch)
  kTwoTInf,         ///< the flush's 2T-INF SOA pass
  kCrxFold,         ///< the flush's CRX histogram pass
  kDedupCommit,     ///< dedup-mode document commit bookkeeping
  kShardMerge,      ///< barrier: alphabet replay + shard store merges
  kLearn,           ///< per-element learner dispatch (split per learner)
  kRewrite,         ///< RewriteFixpoint runs
  kRepair,          ///< iDTD repair-rule searches (incl. failed probes)
  kCrxInfer,        ///< CRX Algorithm 3 runs
  kEmit,            ///< DTD/XSD serialization
  kServeIngest,     ///< daemon: one INGEST command (journal + fold)
  kServeQuery,      ///< daemon: one QUERY command (copy + learn + emit)
  kJournalReplay,   ///< daemon: whole-journal replay at recovery
  kQueryCopy,       ///< daemon: QUERY's flush and copy of changed summaries
  kNumStages,
};

inline constexpr int kMetricShards = 16;
inline constexpr int kLatencyBuckets = 8;
inline constexpr int kMaxLearnerSlots = 16;

/// Upper bounds (ns) of the fixed latency buckets; the last bucket is
/// unbounded. Chosen to straddle the observed range from per-word folds
/// (sub-µs) to whole-corpus merges (ms–s).
inline constexpr std::array<int64_t, kLatencyBuckets - 1> kBucketBoundsNs = {
    1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000,
    1'000'000'000};

/// Stable schema names (JSON keys) for the enums above.
std::string_view CounterName(Counter counter);
std::string_view SchedCounterName(SchedCounter counter);
std::string_view GaugeName(Gauge gauge);
std::string_view StageName(Stage stage);

/// One latency histogram over the fixed buckets: the aggregated view of
/// a registry stage, and the serve daemon's per-corpus request
/// latencies (STATS, /metrics). Plain data; the owner synchronizes.
struct StageStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  std::array<int64_t, kLatencyBuckets> buckets{};

  void Record(int64_t elapsed_ns);

  /// Estimated q-quantile (0 < q < 1) in ns: walk the cumulative
  /// histogram to the target rank, then interpolate linearly inside the
  /// landing bucket. The unbounded last bucket extends one more decade.
  /// Good to roughly one decade of resolution.
  int64_t QuantileNs(double q) const;
};

/// Aggregated per-learner dispatch stats (keyed by registry name).
struct LearnerStats {
  std::string name;
  int64_t calls = 0;
  int64_t failures = 0;
  int64_t total_ns = 0;
};

/// A consistent-enough point-in-time aggregate of the registry (relaxed
/// reads; exact once the instrumented threads have quiesced, which is
/// when reports are taken).
struct StatsSnapshot {
  bool enabled = false;
  std::array<int64_t, static_cast<int>(Counter::kNumCounters)> counters{};
  std::array<int64_t, static_cast<int>(SchedCounter::kNumSchedCounters)>
      sched{};
  std::array<int64_t, static_cast<int>(Gauge::kNumGauges)> gauges{};
  std::array<StageStats, static_cast<int>(Stage::kNumStages)> stages{};
  /// Sorted by name for stable rendering.
  std::vector<LearnerStats> learners;
};

#ifndef CONDTD_NO_STATS

namespace detail {

extern std::atomic<bool> g_stats_enabled;

void CounterAddSlow(Counter counter, int64_t delta);
void SchedAddSlow(SchedCounter counter, int64_t delta);
void GaugeSetSlow(Gauge gauge, int64_t value);
void GaugeMaxSlow(Gauge gauge, int64_t value);
void StageRecordSlow(Stage stage, int64_t elapsed_ns);
void LearnerRecordSlow(int slot, int64_t elapsed_ns, bool ok);

}  // namespace detail

/// True when the runtime switch is on. A relaxed load — callers use it
/// to skip instrumentation work, never for synchronization.
inline bool StatsEnabled() {
  return detail::g_stats_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime switch. Not synchronized with in-flight writers —
/// call from initialization (the CLI flag parser, a test fixture, a
/// bench main), not mid-pipeline.
void EnableStats(bool on);

/// Zeroes every counter, gauge, histogram and learner slot. Same
/// caveat as EnableStats: call while no instrumented thread is running.
void ResetStats();

inline void CounterAdd(Counter counter, int64_t delta) {
  if (StatsEnabled()) detail::CounterAddSlow(counter, delta);
}

inline void SchedAdd(SchedCounter counter, int64_t delta) {
  if (StatsEnabled()) detail::SchedAddSlow(counter, delta);
}

inline void GaugeSet(Gauge gauge, int64_t value) {
  if (StatsEnabled()) detail::GaugeSetSlow(gauge, value);
}

inline void GaugeMax(Gauge gauge, int64_t value) {
  if (StatsEnabled()) detail::GaugeMaxSlow(gauge, value);
}

/// Interns `name` into the per-learner table (bounded; returns -1 when
/// the table is full, which LearnerRecord tolerates). Lock-free reads;
/// registration of a new name takes a mutex.
int LearnerSlot(std::string_view name);

inline void LearnerRecord(int slot, int64_t elapsed_ns, bool ok) {
  if (slot >= 0 && StatsEnabled()) {
    detail::LearnerRecordSlow(slot, elapsed_ns, ok);
  }
}

/// RAII stage timer: measures from construction to destruction and
/// folds the elapsed time into the stage's histogram. Inert (no clock
/// read) when stats are disabled at construction time.
class StageSpan {
 public:
  explicit StageSpan(Stage stage) {
    if (StatsEnabled()) {
      stage_ = stage;
      start_ = std::chrono::steady_clock::now();
      active_ = true;
    }
  }
  ~StageSpan() {
    if (active_) {
      detail::StageRecordSlow(
          stage_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Stage stage_ = Stage::kLexParse;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

#else  // CONDTD_NO_STATS: every entry point compiles to nothing.

constexpr bool StatsEnabled() { return false; }
inline void EnableStats(bool) {}
inline void ResetStats() {}
inline void CounterAdd(Counter, int64_t) {}
inline void SchedAdd(SchedCounter, int64_t) {}
inline void GaugeSet(Gauge, int64_t) {}
inline void GaugeMax(Gauge, int64_t) {}
inline int LearnerSlot(std::string_view) { return -1; }
inline void LearnerRecord(int, int64_t, bool) {}

class StageSpan {
 public:
  explicit StageSpan(Stage) {}
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
};

#endif  // CONDTD_NO_STATS

/// Sums the registry shards into one snapshot. Always available (an
/// all-zero snapshot under CONDTD_NO_STATS) so report consumers need no
/// conditional compilation.
StatsSnapshot SnapshotStats();

}  // namespace obs
}  // namespace condtd

#endif  // CONDTD_OBS_METRICS_H_
