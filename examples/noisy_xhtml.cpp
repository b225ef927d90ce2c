// Noise handling (Section 9): 89% of real-world XHTML fails validation,
// and disallowed children (table inside p, ...) appear with tiny support.
// Inferring with a support threshold recovers the clean content model and
// the validator then gives a uniform view of exactly which occurrences
// were the noise.

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "dtd/dtd_writer.h"
#include "dtd/validator.h"
#include "gen/corpus.h"
#include "infer/inferrer.h"
#include "regex/properties.h"
#include "xml/dom.h"

int main() {
  // A paragraph-like corpus: 41 legal inline elements, with intruders in
  // a handful of the 4000 paragraphs (the Section 9 statistics, scaled).
  condtd::ExperimentCase corpus = condtd::BuildNoisyParagraphCase(
      /*num_words=*/4000, /*num_noisy_words=*/3, /*seed=*/7);

  // Both runs use CRX (mixed-content paragraphs are the sparse,
  // generalization-friendly regime); they differ only in the support
  // threshold.
  condtd::InferenceOptions noisy_options;
  noisy_options.learner = "crx";
  condtd::DtdInferrer noisy_inferrer(noisy_options);
  condtd::InferenceOptions clean_options;
  clean_options.learner = "crx";
  clean_options.noise_symbol_threshold = 50;
  condtd::DtdInferrer clean_inferrer(clean_options);

  auto feed = [&](condtd::DtdInferrer* inferrer) {
    condtd::Symbol p = inferrer->alphabet()->Intern("p");
    std::vector<condtd::Word> words;
    for (const condtd::Word& w : corpus.sample) {
      condtd::Word mapped;
      for (condtd::Symbol s : w) {
        mapped.push_back(
            inferrer->alphabet()->Intern(corpus.alphabet.Name(s)));
      }
      words.push_back(std::move(mapped));
    }
    inferrer->AddWords(p, words);
    return p;
  };
  condtd::Symbol p_noisy = feed(&noisy_inferrer);
  condtd::Symbol p_clean = feed(&clean_inferrer);

  auto model_size = [](const condtd::Result<condtd::ContentModel>& m) {
    return m.ok() && m->regex != nullptr
               ? static_cast<int>(condtd::SymbolsOf(m->regex).size())
               : 0;
  };
  condtd::Result<condtd::ContentModel> noisy_model =
      noisy_inferrer.InferContentModel(p_noisy);
  condtd::Result<condtd::ContentModel> clean_model =
      clean_inferrer.InferContentModel(p_clean);
  if (!noisy_model.ok() || !clean_model.ok()) return 1;

  std::printf("without noise handling : %d distinct child elements\n",
              model_size(noisy_model));
  std::printf("with support threshold : %d distinct child elements\n\n",
              model_size(clean_model));
  std::printf("cleaned content model  : p %s\n\n",
              condtd::ContentModelToString(clean_model.value(),
                                           *clean_inferrer.alphabet())
                  .c_str());

  // Use the cleaned model to locate the noise: validate each paragraph.
  condtd::Dtd dtd;
  dtd.root = p_clean;
  dtd.elements[p_clean] = clean_model.value();
  // Declare the legal children as EMPTY so only the paragraph content is
  // checked.
  if (clean_model->regex != nullptr) {
    for (condtd::Symbol s : condtd::SymbolsOf(clean_model->regex)) {
      dtd.elements[s].kind = condtd::ContentKind::kEmpty;
    }
  }
  int invalid = 0;
  for (const condtd::Word& w : corpus.sample) {
    condtd::XmlDocument doc;
    doc.root = std::make_unique<condtd::XmlElement>("p");
    for (condtd::Symbol s : w) {
      doc.root->AddChild(corpus.alphabet.Name(s));
    }
    condtd::ValidationReport report =
        condtd::Validate(doc, dtd, clean_inferrer.alphabet());
    if (!report.valid()) ++invalid;
  }
  std::printf(
      "validating the corpus against the cleaned model flags %d of %zu "
      "paragraphs —\nexactly the occurrences carrying intruder elements.\n",
      invalid, corpus.sample.size());
  return 0;
}
