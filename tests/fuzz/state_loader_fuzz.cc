// Fuzz target: the versioned summary-state loader. Regression corpus
// covers numeric-overflow counts (previously undefined behavior through
// std::atoll/std::atoi), sums of in-range counts that overflow,
// truncated files and junk count fields. Loaded stores are re-saved and
// re-loaded: a state the loader accepted must round-trip through its own
// serializer. Accepted states are then learned with iDTD and CRX, with
// and without Section 9 noise handling, so undefined behavior past the
// loader (GFA edge supports, CRX counts and symbol supports) is in reach
// too.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/alphabet.h"
#include "infer/inferrer.h"
#include "infer/summary.h"

namespace {

// iDTD is O(n^4) in the SOA's states; larger elements are skipped.
constexpr int kMaxLearnedStates = 64;

void LoadWith(std::string_view input, int max_retained_words) {
  condtd::SummaryLimits limits;
  limits.max_retained_words = max_retained_words;
  condtd::SummaryStore store(limits);
  condtd::Alphabet alphabet;
  if (!store.Load(input, &alphabet).ok()) return;
  std::string saved = store.Save(alphabet);
  condtd::SummaryStore reloaded(limits);
  condtd::Alphabet reloaded_alphabet;
  if (!reloaded.Load(saved, &reloaded_alphabet).ok()) __builtin_trap();
}

// The per-element step and the XSD assembler of InferXsd, over the
// elements small enough to learn.
void LearnWith(std::string_view input, const char* learner,
               int noise_symbol_threshold) {
  condtd::InferenceOptions options;
  options.learner = learner;
  options.noise_symbol_threshold = noise_symbol_threshold;
  condtd::DtdInferrer inferrer(options);
  if (!inferrer.LoadState(input).ok()) return;
  const condtd::SummaryStore& store = inferrer.summaries();
  std::vector<condtd::Symbol> symbols;
  std::vector<condtd::ElementSchema> schemas;
  for (const auto& [symbol, summary] : store.elements()) {
    if (summary.soa.NumStates() > kMaxLearnedStates) continue;
    symbols.push_back(symbol);
    schemas.push_back(inferrer.InferElement(summary, /*xsd=*/true));
  }
  std::vector<condtd::ElementSchemaRef> refs;
  for (size_t i = 0; i < symbols.size(); ++i) {
    refs.emplace_back(symbols[i], &schemas[i]);
  }
  (void)condtd::DtdInferrer::AssembleXsd(store.Root(), refs,
                                         *inferrer.alphabet());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 65536) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  LoadWith(input, 0);
  LoadWith(input, 4);
  for (int noise : {0, 2}) {
    LearnWith(input, "idtd", noise);
    LearnWith(input, "crx", noise);
  }
  return 0;
}
