// Reproduces Section 8.3 (performance): google-benchmark timings of the
// full inference pipelines. The paper reports, on a 2.5 GHz P4 JVM:
// example4 (61 symbols, 10000 strings) — iDTD 7 s, CRX 3.2 s; typical
// ~10-symbol expressions from a few hundred examples — about a second.
// Only the shape matters here (CRX faster than iDTD; both scale to the
// full corpora; Trang-like in CRX's ballpark).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "automaton/soa.h"
#include "automaton/two_t_inf.h"
#include "baseline/trang_like.h"
#include "crx/crx.h"
#include "gen/corpus.h"
#include "idtd/idtd.h"

namespace condtd {
namespace {

const ExperimentCase& Example4() {
  static const ExperimentCase* kCase = [] {
    auto cases = new std::vector<ExperimentCase>(BuildTable2Cases(20060912));
    return &(*cases)[3];
  }();
  return *kCase;
}

const ExperimentCase& Organism() {
  static const ExperimentCase* kCase = [] {
    auto cases = new std::vector<ExperimentCase>(BuildTable1Cases(20060912));
    return &(*cases)[5];  // accinfo: 7 symbols, 124 strings
  }();
  return *kCase;
}

void BM_Crx_Example4_10000Strings(benchmark::State& state) {
  const ExperimentCase& c = Example4();
  for (auto _ : state) {
    Result<ReRef> re = CrxInfer(c.sample);
    benchmark::DoNotOptimize(re.ok());
  }
  state.SetItemsProcessed(state.iterations() * c.sample.size());
}
BENCHMARK(BM_Crx_Example4_10000Strings)->Unit(benchmark::kMillisecond);

void BM_Idtd_Example4_10000Strings(benchmark::State& state) {
  const ExperimentCase& c = Example4();
  for (auto _ : state) {
    Result<ReRef> re = IdtdInfer(c.sample);
    benchmark::DoNotOptimize(re.ok());
  }
  state.SetItemsProcessed(state.iterations() * c.sample.size());
}
BENCHMARK(BM_Idtd_Example4_10000Strings)->Unit(benchmark::kMillisecond);

void BM_TrangLike_Example4_10000Strings(benchmark::State& state) {
  const ExperimentCase& c = Example4();
  for (auto _ : state) {
    Result<ReRef> re = TrangLikeInfer(c.sample);
    benchmark::DoNotOptimize(re.ok());
  }
  state.SetItemsProcessed(state.iterations() * c.sample.size());
}
BENCHMARK(BM_TrangLike_Example4_10000Strings)->Unit(benchmark::kMillisecond);

void BM_Crx_TypicalElement(benchmark::State& state) {
  const ExperimentCase& c = Organism();
  for (auto _ : state) {
    Result<ReRef> re = CrxInfer(c.sample);
    benchmark::DoNotOptimize(re.ok());
  }
}
BENCHMARK(BM_Crx_TypicalElement)->Unit(benchmark::kMicrosecond);

void BM_Idtd_TypicalElement(benchmark::State& state) {
  const ExperimentCase& c = Organism();
  for (auto _ : state) {
    Result<ReRef> re = IdtdInfer(c.sample);
    benchmark::DoNotOptimize(re.ok());
  }
}
BENCHMARK(BM_Idtd_TypicalElement)->Unit(benchmark::kMicrosecond);

// Data-size scaling of CRX's streaming fold (Section 7: O(m + n^3)).
void BM_CrxFold_ScalesLinearlyInData(benchmark::State& state) {
  ExperimentCase base = BuildRepeatedDisjunctionCase(
      /*n=*/20, /*sample_size=*/static_cast<int>(state.range(0)),
      /*seed=*/7);
  for (auto _ : state) {
    CrxState crx;
    crx.AddWords(base.sample);
    Result<ReRef> re = crx.Infer(Infer2T(base.sample));
    benchmark::DoNotOptimize(re.ok());
  }
  state.SetItemsProcessed(state.iterations() * base.sample.size());
}
BENCHMARK(BM_CrxFold_ScalesLinearlyInData)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

// Alphabet-size scaling of iDTD's rewrite machinery (Theorem 1: O(n^4)
// in the number of element names, independent of the data volume).
void BM_Idtd_ScalesWithAlphabet(benchmark::State& state) {
  ExperimentCase base = BuildRepeatedDisjunctionCase(
      /*n=*/static_cast<int>(state.range(0)), /*sample_size=*/2000,
      /*seed=*/8);
  for (auto _ : state) {
    Result<ReRef> re = IdtdInfer(base.sample);
    benchmark::DoNotOptimize(re.ok());
  }
}
BENCHMARK(BM_Idtd_ScalesWithAlphabet)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

// The sparse end of the same trade-off: the SOA of the chain
// a1 a2? a3 a4? ... over n symbols. Every node has at most three
// neighbors, so the cost is in how the GFA stores and scans its rows,
// not in how many edges there are (a bitset-row design lost here).
void BM_Idtd_OptionalChain(benchmark::State& state) {
  std::vector<ReRef> terms;
  for (Symbol s = 0; s < state.range(0); ++s) {
    terms.push_back(s % 2 == 0 ? Re::Sym(s) : Re::Opt(Re::Sym(s)));
  }
  const Soa soa = SoaFromRegex(Re::Concat(std::move(terms)));
  for (auto _ : state) {
    Result<ReRef> re = IdtdFromSoa(soa);
    benchmark::DoNotOptimize(re.ok());
  }
}
BENCHMARK(BM_Idtd_OptionalChain)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace condtd

BENCHMARK_MAIN();
