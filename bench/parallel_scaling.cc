// Thread-count scaling of the batch ingestion engine (IngestEngine) on
// the paper's corpora: Table 2's example4 (61 symbols, 10000 strings —
// one big element, dominated by parse + fold) and a multi-element corpus
// built from the nine Table 1 content models (exercises the per-element
// inference fan-out). At one job the engine spawns no thread. The
// sequential streaming fold over the same documents is the baseline each
// sweep is compared against; the run_parallel_scaling.sh runner captures
// the sweep as BENCH_parallel.json.
//
// Note the determinism contract: every thread count produces the same
// DTD, so the sweep measures pure pipeline overhead/speedup.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gen/corpus.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"

namespace condtd {
namespace {

using bench_util::Example4Documents;
using bench_util::Table1Documents;

// Streaming SAX fold on one thread: the single-threaded baseline for
// the parallel sweep, since the workers run the same streaming fold per
// shard.
void RunSequentialStreaming(benchmark::State& state,
                            const std::vector<std::string>& documents) {
  for (auto _ : state) {
    DtdInferrer inferrer;
    StreamingFolder folder(&inferrer);
    for (const std::string& doc : documents) {
      if (!folder.AddXml(doc).ok()) state.SkipWithError("parse failed");
    }
    folder.Flush();
    Result<Dtd> dtd = inferrer.InferDtd();
    benchmark::DoNotOptimize(dtd.ok());
  }
  state.SetItemsProcessed(state.iterations() * documents.size());
}

void RunParallel(benchmark::State& state,
                 const std::vector<std::string>& documents) {
  IngestEngine::Options options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    IngestEngine engine(options);
    // Borrowed submission: `documents` outlives Finish(), so the
    // scheduler stages string_views into batches with no per-document
    // copy — the same zero-copy path the CLI uses for mmap'd files.
    for (const std::string& doc : documents) engine.AddBorrowedXml(doc);
    if (!engine.Finish().ok()) state.SkipWithError("ingestion failed");
    Result<Dtd> dtd = engine.inferrer().InferDtd(engine.infer_threads());
    if (!dtd.ok()) state.SkipWithError("inference failed");
    benchmark::DoNotOptimize(dtd.ok());
  }
  state.SetItemsProcessed(state.iterations() * documents.size());
}

void BM_SequentialStreaming_Example4(benchmark::State& state) {
  RunSequentialStreaming(state, Example4Documents());
}
BENCHMARK(BM_SequentialStreaming_Example4)->Unit(benchmark::kMillisecond);

void BM_Parallel_Example4(benchmark::State& state) {
  RunParallel(state, Example4Documents());
}
BENCHMARK(BM_Parallel_Example4)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SequentialStreaming_Table1(benchmark::State& state) {
  RunSequentialStreaming(state, Table1Documents());
}
BENCHMARK(BM_SequentialStreaming_Table1)->Unit(benchmark::kMillisecond);

void BM_Parallel_Table1(benchmark::State& state) {
  RunParallel(state, Table1Documents());
}
BENCHMARK(BM_Parallel_Table1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace condtd

BENCHMARK_MAIN();
