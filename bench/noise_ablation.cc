// Reproduces the Section 9 noise discussion: an XHTML-paragraph-like
// corpus — a 41-way repeated disjunction — with about a dozen words
// containing disallowed intruder elements (table, h1, ...). Sweeps the
// support threshold for both noise strategies: CRX's symbol-support
// filter and iDTD's stuck-time edge pruning.

#include <cstdio>
#include <vector>

#include "automaton/two_t_inf.h"
#include "bench/bench_util.h"
#include "crx/crx.h"
#include "gen/corpus.h"
#include "idtd/idtd.h"
#include "regex/properties.h"

namespace condtd {
namespace {

using bench_util::PrintRule;

int AlphabetSizeOf(const ReRef& re) {
  return static_cast<int>(SymbolsOf(re).size());
}

int Run() {
  std::printf(
      "Section 9 (noise) — paragraph corpus: 41 legal elements, intruders "
      "in ~10 of 30000 words\n");
  PrintRule();
  ExperimentCase noisy =
      BuildNoisyParagraphCase(/*num_words=*/30000, /*num_noisy_words=*/10,
                              /*seed=*/20060912);

  CrxState crx;
  crx.AddWords(noisy.sample);
  const Soa soa = Infer2T(noisy.sample);
  std::printf("%10s  %18s  %18s\n", "threshold", "crx alphabet",
              "idtd alphabet");
  for (int threshold : {0, 2, 5, 20, 100}) {
    Result<ReRef> crx_re = crx.Infer(soa, threshold);
    IdtdOptions options;
    options.noise_edge_threshold = threshold;
    options.noise_symbol_threshold = threshold;
    Result<ReRef> idtd_re = IdtdInfer(noisy.sample, options);
    std::printf("%10d  %18s  %18s\n", threshold,
                crx_re.ok()
                    ? std::to_string(AlphabetSizeOf(crx_re.value())).c_str()
                    : "-",
                idtd_re.ok()
                    ? std::to_string(AlphabetSizeOf(idtd_re.value())).c_str()
                    : "-");
  }
  Result<ReRef> noisy_re = crx.Infer(soa, 0);
  Result<ReRef> clean_re = crx.Infer(soa, 100);
  if (noisy_re.ok() && clean_re.ok()) {
    std::printf(
        "\nwithout noise handling the intruders survive: |Σ| = %d; with a "
        "support threshold of 100 (intruder support ~10,\nlegal-element "
        "support in the thousands) the clean 41-symbol repeated "
        "disjunction is recovered: %s\n",
        AlphabetSizeOf(noisy_re.value()),
        IsChare(clean_re.value()) && AlphabetSizeOf(clean_re.value()) == 41
            ? "yes"
            : "NO");
  }
  return 0;
}

}  // namespace
}  // namespace condtd

int main() { return condtd::Run(); }
