// Reproduces the Section 9 incremental-computation discussion: folding
// newly arriving XML data into the retained summaries (per-element SOA +
// CRX state) gives byte-identical DTDs to batch re-inference, while the
// summaries stay tiny relative to the data.

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench/bench_util.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/inferrer.h"

namespace condtd {
namespace {

using bench_util::PrintRule;
using bench_util::Stopwatch;

int Run() {
  std::printf(
      "Section 9 (incremental computation) — incremental AddXml vs "
      "batch re-inference\n");
  PrintRule();

  Alphabet gen_alphabet;
  Result<Dtd> truth = ParseDtd(
      "<!ELEMENT feed (entry+)>\n"
      "<!ELEMENT entry (title, updated?, (link | content)*, author)>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT updated (#PCDATA)>\n"
      "<!ELEMENT link EMPTY>\n"
      "<!ELEMENT content (#PCDATA)>\n"
      "<!ELEMENT author (name, email?)>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!ELEMENT email (#PCDATA)>\n",
      &gen_alphabet);
  if (!truth.ok()) {
    std::printf("generator DTD failed: %s\n",
                truth.status().ToString().c_str());
    return 1;
  }
  Rng rng(20060912);
  std::vector<std::string> documents;
  size_t corpus_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    Result<XmlDocument> doc =
        GenerateDocument(truth.value(), gen_alphabet, &rng);
    documents.push_back(doc->ToXml());
    corpus_bytes += documents.back().size();
  }

  DtdInferrer incremental;
  std::printf("%10s  %14s  %14s  %10s\n", "docs seen", "fold ms (tot)",
              "batch ms", "same DTD");
  double fold_total_ms = 0;
  size_t next_checkpoint = 250;
  for (size_t i = 0; i < documents.size(); ++i) {
    Stopwatch fold;
    if (!incremental.AddXml(documents[i]).ok()) return 1;
    fold_total_ms += fold.ElapsedMs();
    if (i + 1 == next_checkpoint || i + 1 == documents.size()) {
      // Batch: re-infer from scratch over everything seen so far.
      Stopwatch batch_watch;
      DtdInferrer batch;
      for (size_t j = 0; j <= i; ++j) {
        if (!batch.AddXml(documents[j]).ok()) return 1;
      }
      Result<Dtd> batch_dtd = batch.InferDtd();
      double batch_ms = batch_watch.ElapsedMs();
      Result<Dtd> inc_dtd = incremental.InferDtd();
      bool same =
          batch_dtd.ok() && inc_dtd.ok() &&
          WriteDtd(batch_dtd.value(), *batch.alphabet()) ==
              WriteDtd(inc_dtd.value(), *incremental.alphabet());
      std::printf("%10zu  %14.1f  %14.1f  %10s\n", i + 1, fold_total_ms,
                  batch_ms, same ? "yes" : "NO");
      next_checkpoint *= 2;
    }
  }
  Result<Dtd> final_dtd = incremental.InferDtd();
  if (final_dtd.ok()) {
    std::printf("\ncorpus: %zu documents, %.1f MB; inferred DTD:\n%s",
                documents.size(),
                static_cast<double>(corpus_bytes) / (1024.0 * 1024.0),
                WriteDtd(final_dtd.value(), *incremental.alphabet())
                    .c_str());
  }
  return 0;
}

}  // namespace
}  // namespace condtd

int main() { return condtd::Run(); }
