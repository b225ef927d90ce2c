#include "obs/metrics.h"

#include <algorithm>

#ifndef CONDTD_NO_STATS
#include <mutex>
#endif

namespace condtd {
namespace obs {

namespace {

constexpr std::array<std::string_view,
                     static_cast<size_t>(Counter::kNumCounters)>
    kCounterNames = {
        "bytes_ingested",      "documents_ingested", "documents_failed",
        "start_tags",          "text_events",        "attributes_seen",
        "entity_decodes",      "words_folded",       "child_word_folds",
        "rewrite_applications", "repair_disjunctions", "repair_optionals",
        "repair_fallbacks",    "noisy_edges_dropped", "crx_infer_calls",
        "crx_factors",         "elements_learned",
};

constexpr std::array<std::string_view,
                     static_cast<size_t>(SchedCounter::kNumSchedCounters)>
    kSchedNames = {
        "dedup_cache_hits", "dedup_cache_misses", "dedup_flushes",
        "weighted_fold_ops", "shard_merges",      "summary_merges",
        "worker_exceptions", "batches_dispatched", "batch_steals",
        "mmap_reads",        "buffered_reads",     "dedup_probe_steps",
        "dense_fold_hits",   "dense_fold_fallbacks",
        "serve_ingest_requests", "serve_query_requests",
        "serve_query_cache_hits", "serve_request_errors",
        "journal_appends", "journal_replayed_docs", "snapshots_written",
        "journal_compactions", "corpora_evicted", "http_requests",
        "query_elements_relearned", "query_elements_reused",
};

constexpr std::array<std::string_view, static_cast<size_t>(Gauge::kNumGauges)>
    kGaugeNames = {
        "jobs",
        "dedup_cache_peak",
        "shard_docs_max",
        "batch_docs",
        "arena_bytes_peak",
        "dedup_cache_bytes_peak",
        "corpora_open",
        "corpus_bytes_peak",
};

constexpr std::array<std::string_view, static_cast<size_t>(Stage::kNumStages)>
    kStageNames = {
        "io_read",   "lex_parse",     "entity_decode", "word_fold",
        "two_t_inf", "crx_fold",      "dedup_commit",  "shard_merge",
        "learn",     "rewrite",       "repair",        "crx_infer",
        "emit",      "serve_ingest",  "serve_query",   "journal_replay",
        "query_copy",
};

int BucketOf(int64_t elapsed_ns) {
  int bucket = 0;
  while (bucket < kLatencyBuckets - 1 &&
         elapsed_ns > kBucketBoundsNs[bucket]) {
    ++bucket;
  }
  return bucket;
}

}  // namespace

void StageStats::Record(int64_t elapsed_ns) {
  ++count;
  total_ns += elapsed_ns;
  ++buckets[BucketOf(elapsed_ns)];
}

int64_t StageStats::QuantileNs(double q) const {
  const int64_t top = kBucketBoundsNs[kLatencyBuckets - 2] * 10;
  if (count == 0) return 0;
  double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (int bucket = 0; bucket < kLatencyBuckets; ++bucket) {
    if (buckets[bucket] == 0) continue;
    double before = static_cast<double>(cumulative);
    cumulative += buckets[bucket];
    if (static_cast<double>(cumulative) < target) continue;
    int64_t lo = bucket == 0 ? 0 : kBucketBoundsNs[bucket - 1];
    int64_t hi = bucket < kLatencyBuckets - 1 ? kBucketBoundsNs[bucket] : top;
    double fraction =
        (target - before) / static_cast<double>(buckets[bucket]);
    fraction = std::clamp(fraction, 0.0, 1.0);
    return lo + static_cast<int64_t>(fraction * static_cast<double>(hi - lo));
  }
  return top;
}

std::string_view CounterName(Counter counter) {
  return kCounterNames[static_cast<size_t>(counter)];
}

std::string_view SchedCounterName(SchedCounter counter) {
  return kSchedNames[static_cast<size_t>(counter)];
}

std::string_view GaugeName(Gauge gauge) {
  return kGaugeNames[static_cast<size_t>(gauge)];
}

std::string_view StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

#ifndef CONDTD_NO_STATS

namespace detail {

std::atomic<bool> g_stats_enabled{false};

namespace {

/// One cache-line-padded accumulator shard. Every field is a relaxed
/// atomic: threads sharing a slot stay correct (just contended), and
/// the whole structure is race-free under TSan by construction.
struct alignas(64) Slot {
  std::atomic<int64_t> counters[static_cast<int>(Counter::kNumCounters)];
  std::atomic<int64_t>
      sched[static_cast<int>(SchedCounter::kNumSchedCounters)];
  struct StageCell {
    std::atomic<int64_t> count;
    std::atomic<int64_t> total_ns;
    std::atomic<int64_t> buckets[kLatencyBuckets];
  };
  StageCell stages[static_cast<int>(Stage::kNumStages)];
  struct LearnerCell {
    std::atomic<int64_t> calls;
    std::atomic<int64_t> failures;
    std::atomic<int64_t> total_ns;
  };
  LearnerCell learners[kMaxLearnerSlots];
};

Slot g_slots[kMetricShards];

/// Gauges are corpus-level singletons, not per-thread accumulators.
std::atomic<int64_t> g_gauges[static_cast<int>(Gauge::kNumGauges)];

/// Per-learner name table: append-only, published via the atomic count
/// so lookups are lock-free (entries are immutable once visible).
std::string g_learner_names[kMaxLearnerSlots];
std::atomic<int> g_learner_count{0};
std::mutex g_learner_mutex;

inline Slot& LocalSlot() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return g_slots[index];
}

}  // namespace

void CounterAddSlow(Counter counter, int64_t delta) {
  LocalSlot().counters[static_cast<int>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

void SchedAddSlow(SchedCounter counter, int64_t delta) {
  LocalSlot().sched[static_cast<int>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

void GaugeSetSlow(Gauge gauge, int64_t value) {
  g_gauges[static_cast<int>(gauge)].store(value, std::memory_order_relaxed);
}

void GaugeMaxSlow(Gauge gauge, int64_t value) {
  std::atomic<int64_t>& cell = g_gauges[static_cast<int>(gauge)];
  int64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

void StageRecordSlow(Stage stage, int64_t elapsed_ns) {
  Slot::StageCell& cell = LocalSlot().stages[static_cast<int>(stage)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  cell.buckets[BucketOf(elapsed_ns)].fetch_add(1,
                                               std::memory_order_relaxed);
}

void LearnerRecordSlow(int slot, int64_t elapsed_ns, bool ok) {
  Slot::LearnerCell& cell = LocalSlot().learners[slot];
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  if (!ok) cell.failures.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
}

}  // namespace detail

void EnableStats(bool on) {
  detail::g_stats_enabled.store(on, std::memory_order_relaxed);
}

void ResetStats() {
  using detail::g_slots;
  for (detail::Slot& slot : g_slots) {
    for (auto& counter : slot.counters) {
      counter.store(0, std::memory_order_relaxed);
    }
    for (auto& counter : slot.sched) {
      counter.store(0, std::memory_order_relaxed);
    }
    for (auto& stage : slot.stages) {
      stage.count.store(0, std::memory_order_relaxed);
      stage.total_ns.store(0, std::memory_order_relaxed);
      for (auto& bucket : stage.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& learner : slot.learners) {
      learner.calls.store(0, std::memory_order_relaxed);
      learner.failures.store(0, std::memory_order_relaxed);
      learner.total_ns.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : detail::g_gauges) {
    gauge.store(0, std::memory_order_relaxed);
  }
  // The learner name table survives a reset on purpose: slots cached by
  // callers (LearnerSlot results) must stay valid for the process
  // lifetime; only their accumulators are zeroed above.
}

int LearnerSlot(std::string_view name) {
  int count = detail::g_learner_count.load(std::memory_order_acquire);
  for (int i = 0; i < count; ++i) {
    if (detail::g_learner_names[i] == name) return i;
  }
  std::lock_guard<std::mutex> lock(detail::g_learner_mutex);
  count = detail::g_learner_count.load(std::memory_order_acquire);
  for (int i = 0; i < count; ++i) {
    if (detail::g_learner_names[i] == name) return i;
  }
  if (count >= kMaxLearnerSlots) return -1;
  detail::g_learner_names[count] = std::string(name);
  detail::g_learner_count.store(count + 1, std::memory_order_release);
  return count;
}

StatsSnapshot SnapshotStats() {
  StatsSnapshot snapshot;
  snapshot.enabled = StatsEnabled();
  for (const detail::Slot& slot : detail::g_slots) {
    for (int c = 0; c < static_cast<int>(Counter::kNumCounters); ++c) {
      snapshot.counters[c] +=
          slot.counters[c].load(std::memory_order_relaxed);
    }
    for (int c = 0; c < static_cast<int>(SchedCounter::kNumSchedCounters);
         ++c) {
      snapshot.sched[c] += slot.sched[c].load(std::memory_order_relaxed);
    }
    for (int s = 0; s < static_cast<int>(Stage::kNumStages); ++s) {
      StageStats& out = snapshot.stages[s];
      out.count += slot.stages[s].count.load(std::memory_order_relaxed);
      out.total_ns +=
          slot.stages[s].total_ns.load(std::memory_order_relaxed);
      for (int b = 0; b < kLatencyBuckets; ++b) {
        out.buckets[b] +=
            slot.stages[s].buckets[b].load(std::memory_order_relaxed);
      }
    }
  }
  for (int g = 0; g < static_cast<int>(Gauge::kNumGauges); ++g) {
    snapshot.gauges[g] =
        detail::g_gauges[g].load(std::memory_order_relaxed);
  }
  int learner_count =
      detail::g_learner_count.load(std::memory_order_acquire);
  for (int i = 0; i < learner_count; ++i) {
    LearnerStats stats;
    stats.name = detail::g_learner_names[i];
    for (const detail::Slot& slot : detail::g_slots) {
      stats.calls += slot.learners[i].calls.load(std::memory_order_relaxed);
      stats.failures +=
          slot.learners[i].failures.load(std::memory_order_relaxed);
      stats.total_ns +=
          slot.learners[i].total_ns.load(std::memory_order_relaxed);
    }
    if (stats.calls > 0) snapshot.learners.push_back(std::move(stats));
  }
  std::sort(snapshot.learners.begin(), snapshot.learners.end(),
            [](const LearnerStats& a, const LearnerStats& b) {
              return a.name < b.name;
            });
  return snapshot;
}

#else  // CONDTD_NO_STATS

StatsSnapshot SnapshotStats() { return StatsSnapshot(); }

#endif  // CONDTD_NO_STATS

}  // namespace obs
}  // namespace condtd
