#include "gen/random_dtd.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "base/strings.h"

namespace condtd {

Dtd RandomDtd(Alphabet* alphabet, Rng* rng,
              const RandomDtdOptions& options) {
  const int n = options.num_elements;
  std::vector<Symbol> symbols;
  symbols.reserve(n);
  for (int i = 0; i < n; ++i) {
    symbols.push_back(alphabet->Intern(Numbered("e", i)));
  }
  Dtd dtd;
  dtd.root = symbols[0];
  for (int i = 0; i < n; ++i) {
    ContentModel model;
    // Candidates: strictly higher-numbered elements (keeps the DTD
    // acyclic, so document generation always terminates).
    std::vector<Symbol> candidates(symbols.begin() + i + 1, symbols.end());
    bool leaf = candidates.empty() || (i > 0 && rng->Bernoulli(0.35));
    if (leaf) {
      model.kind = rng->Bernoulli(options.leaf_pcdata_p)
                       ? ContentKind::kPcdataOnly
                       : ContentKind::kEmpty;
      dtd.elements[symbols[i]] = std::move(model);
      continue;
    }
    int k = 1 + static_cast<int>(rng->NextBelow(std::min(
                static_cast<size_t>(options.max_children),
                candidates.size())));
    rng->Shuffle(&candidates);
    candidates.resize(k);
    // Random content model over local ids [0, k), remapped to the
    // chosen children.
    ReRef local = rng->Bernoulli(options.chare_p)
                      ? RandomChare(k, rng, options.regex)
                      : RandomSore(k, rng, options.regex);
    std::map<Symbol, Symbol> mapping;
    for (int j = 0; j < k; ++j) {
      mapping[static_cast<Symbol>(j)] = candidates[j];
    }
    model.kind = ContentKind::kChildren;
    model.regex = RemapSymbols(local, mapping);
    dtd.elements[symbols[i]] = std::move(model);
  }
  return dtd;
}

}  // namespace condtd
