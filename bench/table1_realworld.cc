// Reproduces Table 1: iDTD, CRX and XTRACT on the nine non-trivial
// element definitions of the Protein Sequence Database and Mondial DTDs.
// The corpora are synthesized from the original content models with the
// data biases the paper documents (see DESIGN.md, Substitutions).

#include <cstdio>
#include <vector>

#include <memory>

#include "baseline/xtract.h"
#include "bench/bench_util.h"
#include "crx/crx.h"
#include "gen/corpus.h"
#include "gen/reservoir.h"
#include "idtd/idtd.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "regex/equivalence.h"
#include "xml/dom.h"

namespace condtd {
namespace {

using bench_util::AcceptsSample;
using bench_util::Paper;
using bench_util::PaperOrTokens;
using bench_util::PrintRule;
using bench_util::Stopwatch;

/// Fidelity check: run one case through the *full* XML pipeline rather
/// than the word-level API — write documents whose element carries the
/// sample's child sequences, fold them through the streaming fold,
/// infer, and compare with the word-level result.
bool FullXmlPipelineAgrees(const ExperimentCase& c, const ReRef& expected) {
  DtdInferrer inferrer;
  // Pre-intern the symbols in the case's id order.
  for (int i = 0; i < c.alphabet.size(); ++i) {
    inferrer.alphabet()->Intern(c.alphabet.Name(i));
  }
  Symbol element = inferrer.alphabet()->Intern(c.name);
  {
    StreamingFolder folder(&inferrer);
    for (const Word& w : c.sample) {
      XmlDocument doc;
      doc.root = std::make_unique<XmlElement>(c.name);
      for (Symbol s : w) doc.root->AddChild(c.alphabet.Name(s));
      if (!folder.AddXml(doc.ToXml()).ok()) return false;
    }
  }
  Result<ContentModel> model = inferrer.InferContentModel(element);
  if (!model.ok() || model->kind != ContentKind::kChildren) return false;
  return LanguageEquivalent(model->regex, expected);
}

int Run() {
  std::printf(
      "Table 1 — real-world element definitions (synthetic corpora at the "
      "paper's sample sizes)\n");
  PrintRule();
  std::vector<ExperimentCase> cases = BuildTable1Cases(/*seed=*/20060912);
  int sound = 0;
  for (ExperimentCase& c : cases) {
    std::printf("%-12s (n=%d%s)\n", c.name.c_str(), c.sample_size,
                c.xtract_sample_size != c.sample_size ? ", xtract capped"
                                                      : "");
    std::printf("  original DTD : %s\n", Paper(c.original, c.alphabet).c_str());

    Stopwatch crx_watch;
    Result<ReRef> crx = CrxInfer(c.sample);
    double crx_ms = crx_watch.ElapsedMs();
    Stopwatch idtd_watch;
    Result<ReRef> idtd = IdtdInfer(c.sample);
    double idtd_ms = idtd_watch.ElapsedMs();

    if (crx.ok()) {
      bool ok = AcceptsSample(crx.value(), c.sample);
      std::printf("  crx          : %-46s  [%5.1f ms]%s\n",
                  Paper(crx.value(), c.alphabet).c_str(), crx_ms,
                  ok ? "" : "  !! sample not covered");
      if (ok) ++sound;
    } else {
      std::printf("  crx          : %s\n", crx.status().ToString().c_str());
    }
    if (idtd.ok()) {
      bool ok = AcceptsSample(idtd.value(), c.sample);
      std::printf("  iDTD         : %-46s  [%5.1f ms]%s\n",
                  Paper(idtd.value(), c.alphabet).c_str(), idtd_ms,
                  ok ? "" : "  !! sample not covered");
    } else {
      std::printf("  iDTD         : %s\n", idtd.status().ToString().c_str());
    }

    // XTRACT at its (possibly reduced) feasible sample size.
    Rng xtract_rng(17);
    std::vector<Word> xtract_sample =
        c.xtract_sample_size < static_cast<int>(c.sample.size())
            ? ReservoirSample(c.sample, c.xtract_sample_size, &xtract_rng)
            : c.sample;
    Stopwatch xtract_watch;
    Result<ReRef> xtract = XtractInfer(xtract_sample);
    double xtract_ms = xtract_watch.ElapsedMs();
    if (xtract.ok()) {
      std::printf("  xtract       : %-46s  [%5.1f ms]\n",
                  PaperOrTokens(xtract.value(), c.alphabet).c_str(),
                  xtract_ms);
    } else {
      std::printf("  xtract       : %s\n",
                  xtract.status().ToString().c_str());
    }
    std::printf("  paper crx    : %s\n", c.paper_crx.c_str());
    std::printf("  paper iDTD   : %s\n", c.paper_idtd.c_str());
    std::printf("  paper xtract : %s\n", c.paper_xtract.c_str());
    // End-to-end fidelity: the full XML pipeline (documents → streaming
    // fold → auto learner) agrees with the word-level run.
    const Result<ReRef>& via_auto =
        c.sample_size >= 100 ? idtd : crx;  // kAuto's switch
    if (via_auto.ok()) {
      std::printf("  full XML pipeline agrees: %s\n",
                  FullXmlPipelineAgrees(c, via_auto.value()) ? "yes"
                                                             : "NO");
    }
    PrintRule();
  }
  std::printf("crx sound on %d/%zu cases (every sample word accepted)\n",
              sound, cases.size());
  return 0;
}

}  // namespace
}  // namespace condtd

int main() { return condtd::Run(); }
