// Ingestion throughput: DOM parse-then-fold (ParseXml plus the reference
// fold in src/check/) vs the streaming SAX fold with its word-multiset
// deduplication, on the paper's corpora (the multi-element Table 1
// corpus and Table 2's example4). Reports
// MB/s over the raw XML bytes, peak RSS, and an FNV-1a fingerprint of
// the inferred DTD — the fingerprint must agree across modes (the
// determinism contract), which the run_ingest_throughput.sh runner
// checks while assembling BENCH_ingest.json. Run each mode in its own
// process when RSS matters: ru_maxrss is a process-lifetime high-water
// mark.
//
//   ingest_throughput --corpus=table1|table2|synthetic
//                     --mode=dom|sax [--synthetic-mb=N]
//                     [--repeat=N] [--max-docs=N] [--json] [--stats]
//                     [--dump-dir=DIR]
//
// --dump-dir writes the selected corpus to DIR/doc<N>.xml and exits
// without benchmarking — the bridge to measuring the same corpus
// through `condtd infer --stats --jobs=N`, which only reads files.
//
// --corpus=synthetic (or just --synthetic-mb=N, which implies it)
// generates a deterministic text-dominant corpus of N MiB in memory —
// large enough to defeat the cache residency that makes the paper-sized
// corpora flatter memory-bandwidth work than real DBLP-scale inputs.
//
// --stats turns the observability registry on for the timed runs and
// appends the obs report to stderr — both to measure the enabled-path
// overhead against a plain run (EXPERIMENTS.md E15) and to cross-check
// the bench's own counters against the registry's. It also unlocks the
// per-phase breakdown (read vs parse vs fold vs commit) derived from
// the StageSpan histograms, reported per repeat.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "check/reference_fold.h"
#include "dtd/dtd_writer.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace condtd {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

long PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

struct RunResult {
  double seconds = 0;
  uint64_t dtd_fingerprint = 0;
  int64_t distinct_words = 0;  // sax mode only
  int64_t words = 0;
  int64_t dedup_hits = 0;
  int64_t dedup_misses = 0;
  int64_t dedup_flushes = 0;
};

RunResult RunOnce(const std::vector<std::string>& documents,
                  const std::string& mode) {
  RunResult result;
  DtdInferrer inferrer;
  bench_util::Stopwatch timer;
  if (mode == "dom") {
    for (const std::string& doc : documents) {
      Status status = ReferenceFoldXml(doc, &inferrer);
      if (!status.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
  } else {
    StreamingFolder folder(&inferrer);
    for (const std::string& doc : documents) {
      Status status = folder.AddXml(doc);
      if (!status.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
    }
    result.distinct_words = folder.distinct_words_cached();
    result.words = folder.words_folded();
    folder.Flush();
    result.dedup_hits = folder.dedup_hits();
    result.dedup_misses = folder.dedup_misses();
    result.dedup_flushes = folder.dedup_flushes();
  }
  result.seconds = timer.ElapsedMs() / 1000.0;
  Result<Dtd> dtd = inferrer.InferDtd();
  if (!dtd.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 dtd.status().ToString().c_str());
    std::exit(1);
  }
  result.dtd_fingerprint =
      Fnv1a(WriteDtd(dtd.value(), *inferrer.alphabet()));
  return result;
}

int Main(int argc, char** argv) {
  std::string corpus = "table1";
  bool corpus_set = false;
  std::string mode = "sax";
  std::string dump_dir;
  int synthetic_mb = 0;
  int repeat = 5;
  int max_docs = 0;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto flag = [&](const char* name, std::string* value) {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *value = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    if (flag("corpus", &value)) {
      corpus = value;
      corpus_set = true;
    } else if (flag("mode", &value)) {
      mode = value;
    } else if (flag("synthetic-mb", &value)) {
      synthetic_mb = std::atoi(value.c_str());
      if (!corpus_set) corpus = "synthetic";
    } else if (flag("repeat", &value)) {
      repeat = std::atoi(value.c_str());
    } else if (flag("max-docs", &value)) {
      max_docs = std::atoi(value.c_str());
    } else if (flag("dump-dir", &value)) {
      dump_dir = value;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--stats") {
      obs::EnableStats(true);
      obs::ResetStats();
    } else {
      std::fprintf(stderr,
                   "usage: ingest_throughput "
                   "--corpus=table1|table2|synthetic "
                   "--mode=dom|sax [--synthetic-mb=N] "
                   "[--repeat=N] [--max-docs=N] [--json] [--stats]\n");
      return 2;
    }
  }
  if ((corpus != "table1" && corpus != "table2" &&
       corpus != "synthetic") ||
      (mode != "dom" && mode != "sax") ||
      repeat < 1 || synthetic_mb < 0) {
    std::fprintf(stderr,
                 "bad --corpus/--mode/--repeat/--synthetic-mb value\n");
    return 2;
  }

  // table1: the nine Table 1 content models with realistic #PCDATA
  // leaves and attributes (text-dominant, like the paper's corpora).
  // table2: example4's 10000 pure-markup one-element documents.
  // synthetic: an N-MiB generated record corpus (default 64 MiB) that
  // exceeds cache so the scan path hits memory bandwidth.
  std::vector<std::string> documents =
      corpus == "synthetic"
          ? bench_util::SyntheticCorpusDocuments(
                synthetic_mb > 0 ? synthetic_mb : 64)
          : (corpus == "table1" ? bench_util::Table1TextDocuments()
                                : bench_util::Example4Documents());
  if (max_docs > 0 && static_cast<int>(documents.size()) > max_docs) {
    documents.resize(max_docs);
  }
  if (!dump_dir.empty()) {
    for (size_t d = 0; d < documents.size(); ++d) {
      char path[4096];
      std::snprintf(path, sizeof(path), "%s/doc%05zu.xml",
                    dump_dir.c_str(), d);
      std::FILE* f = std::fopen(path, "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
      }
      std::fwrite(documents[d].data(), 1, documents[d].size(), f);
      std::fclose(f);
    }
    std::fprintf(stderr, "wrote %zu documents to %s\n", documents.size(),
                 dump_dir.c_str());
    return 0;
  }
  int64_t total_bytes = 0;
  for (const std::string& doc : documents) {
    total_bytes += static_cast<int64_t>(doc.size());
  }

  RunResult best;
  for (int r = 0; r < repeat; ++r) {
    RunResult run = RunOnce(documents, mode);
    if (r == 0 || run.seconds < best.seconds) best = run;
    if (r > 0 && run.dtd_fingerprint != best.dtd_fingerprint) {
      std::fprintf(stderr, "non-deterministic DTD across repeats\n");
      return 1;
    }
  }
  // Per-phase wall-clock per repeat, from the StageSpan histograms:
  // where a run's time actually goes (read vs parse vs fold vs commit).
  // total_ns accumulates across all repeats, so divide by repeat for a
  // per-run figure. Zero (and absent from output) when --stats is off.
  struct PhaseBreakdown {
    bool enabled = false;
    double io_read_ms = 0;
    double lex_parse_ms = 0;
    double word_fold_ms = 0;
    double dedup_commit_ms = 0;
    double shard_merge_ms = 0;
  };
  PhaseBreakdown phases;
  if (obs::StatsEnabled()) {
    obs::StatsSnapshot snapshot = obs::SnapshotStats();
    // The registry and the folder count the same events; disagreement
    // means an instrumentation point went missing.
    int64_t registry_words = snapshot.counters[static_cast<int>(
                                 obs::Counter::kWordsFolded)] /
                             repeat;
    if (best.words > 0 && registry_words != best.words) {
      std::fprintf(stderr,
                   "stats mismatch: registry saw %lld words per run, "
                   "folder counted %lld\n",
                   static_cast<long long>(registry_words),
                   static_cast<long long>(best.words));
      return 1;
    }
    auto stage_ms = [&snapshot, repeat](obs::Stage stage) {
      return static_cast<double>(
                 snapshot.stages[static_cast<int>(stage)].total_ns) /
             1e6 / repeat;
    };
    phases.enabled = true;
    phases.io_read_ms = stage_ms(obs::Stage::kIoRead);
    phases.lex_parse_ms = stage_ms(obs::Stage::kLexParse);
    phases.word_fold_ms = stage_ms(obs::Stage::kWordFold);
    phases.dedup_commit_ms = stage_ms(obs::Stage::kDedupCommit);
    phases.shard_merge_ms = stage_ms(obs::Stage::kShardMerge);
    std::fputs(RenderStatsText(snapshot).c_str(), stderr);
  }
  double mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  double mb_per_s = mb / best.seconds;
  double docs_per_s = static_cast<double>(documents.size()) / best.seconds;

  if (json) {
    std::printf(
        "{\"corpus\": \"%s\", \"mode\": \"%s\", \"documents\": %zu, "
        "\"bytes\": %lld, \"repeats\": %d, \"num_cpus\": %d, "
        "\"best_ingest_seconds\": %.6f, "
        "\"mb_per_s\": %.2f, \"docs_per_s\": %.0f, \"words\": %lld, "
        "\"distinct_words\": %lld, \"dedup_hits\": %lld, "
        "\"dedup_misses\": %lld, \"dedup_flushes\": %lld, "
        "\"dtd_fnv1a\": \"%016llx\", "
        "\"peak_rss_kb\": %ld",
        corpus.c_str(), mode.c_str(), documents.size(),
        static_cast<long long>(total_bytes), repeat,
        bench_util::NumCpus(), best.seconds, mb_per_s, docs_per_s,
        static_cast<long long>(best.words),
        static_cast<long long>(best.distinct_words),
        static_cast<long long>(best.dedup_hits),
        static_cast<long long>(best.dedup_misses),
        static_cast<long long>(best.dedup_flushes),
        static_cast<unsigned long long>(best.dtd_fingerprint), PeakRssKb());
    if (phases.enabled) {
      std::printf(
          ", \"phase_ms\": {\"io_read\": %.3f, \"lex_parse\": %.3f, "
          "\"word_fold\": %.3f, \"dedup_commit\": %.3f, "
          "\"shard_merge\": %.3f}",
          phases.io_read_ms, phases.lex_parse_ms, phases.word_fold_ms,
          phases.dedup_commit_ms, phases.shard_merge_ms);
    }
    std::printf("}\n");
  } else {
    std::printf(
        "%s/%s: %zu docs, %.2f MB, best of %d: %.3f s  (%.1f MB/s, "
        "%.0f docs/s)  dtd=%016llx  peak_rss=%ld KB  cpus=%d\n",
        corpus.c_str(), mode.c_str(), documents.size(), mb, repeat,
        best.seconds, mb_per_s, docs_per_s,
        static_cast<unsigned long long>(best.dtd_fingerprint), PeakRssKb(),
        bench_util::NumCpus());
    if (phases.enabled) {
      std::printf(
          "  per-repeat phases: io_read %.1f ms, lex_parse %.1f ms, "
          "word_fold %.1f ms, dedup_commit %.1f ms, shard_merge %.1f "
          "ms\n",
          phases.io_read_ms, phases.lex_parse_ms, phases.word_fold_ms,
          phases.dedup_commit_ms, phases.shard_merge_ms);
    }
    if (best.words > 0) {
      std::printf("  %lld words folded, %lld distinct (%.1fx dedup)\n",
                  static_cast<long long>(best.words),
                  static_cast<long long>(best.distinct_words),
                  best.distinct_words > 0
                      ? static_cast<double>(best.words) /
                            static_cast<double>(best.distinct_words)
                      : 0.0);
    }
    if (best.dedup_hits + best.dedup_misses > 0) {
      std::printf("  dedup: %lld hits, %lld misses, %lld flushes\n",
                  static_cast<long long>(best.dedup_hits),
                  static_cast<long long>(best.dedup_misses),
                  static_cast<long long>(best.dedup_flushes));
    }
  }
  return 0;
}

}  // namespace
}  // namespace condtd

int main(int argc, char** argv) { return condtd::Main(argc, argv); }
