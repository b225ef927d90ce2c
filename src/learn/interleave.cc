#include "learn/interleave.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "crx/crx.h"
#include "idtd/idtd.h"
#include "regex/determinism.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/properties.h"
#include "regex/shuffle.h"

namespace condtd {

namespace {

/// Alphabet cap for the pairwise order scan; elements with more distinct
/// children fall back to the baseline learner (the O(|Σ|²) evidence
/// table would dominate and such content models are rarely shuffles).
constexpr size_t kMaxInterleaveSymbols = 64;

struct UnionFind {
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = i;
  }
  size_t Find(size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent[Find(a)] = Find(b); }
  std::vector<size_t> parent;
};

}  // namespace

std::vector<std::vector<Symbol>> InterleavingPartition(
    const std::vector<Word>& words) {
  std::set<Symbol> symbol_set;
  for (const Word& w : words) symbol_set.insert(w.begin(), w.end());
  std::vector<Symbol> symbols(symbol_set.begin(), symbol_set.end());
  if (symbols.size() < 2 || symbols.size() > kMaxInterleaveSymbols) {
    return {symbols};
  }

  const size_t n = symbols.size();
  std::map<Symbol, size_t> index;
  for (size_t i = 0; i < n; ++i) index[symbols[i]] = i;

  // before[i][j]: some word places every occurrence of symbol i strictly
  // before every occurrence of symbol j.
  std::vector<std::vector<bool>> before(n, std::vector<bool>(n, false));
  std::vector<int> first(n), last(n);
  std::vector<size_t> present;
  for (const Word& w : words) {
    std::fill(first.begin(), first.end(), -1);
    present.clear();
    for (size_t pos = 0; pos < w.size(); ++pos) {
      size_t i = index.at(w[pos]);
      if (first[i] < 0) {
        first[i] = static_cast<int>(pos);
        present.push_back(i);
      }
      last[i] = static_cast<int>(pos);
    }
    for (size_t x = 0; x < present.size(); ++x) {
      for (size_t y = x + 1; y < present.size(); ++y) {
        size_t i = present[x];
        size_t j = present[y];
        if (last[i] < first[j]) {
          before[i][j] = true;
        } else if (last[j] < first[i]) {
          before[j][i] = true;
        }
        // Mixed within the word: repetition ((ab)+ words like "abab"),
        // not order-freedom — no evidence either way.
      }
    }
  }

  UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!(before[i][j] && before[j][i])) uf.Union(i, j);
    }
  }

  // Groups keyed by their representative, ordered by smallest symbol
  // (symbols are scanned ascending, so group order falls out).
  std::map<size_t, std::vector<Symbol>> by_root;
  for (size_t i = 0; i < n; ++i) by_root[uf.Find(i)].push_back(symbols[i]);
  std::vector<std::vector<Symbol>> groups;
  groups.reserve(by_root.size());
  for (auto& [root, group] : by_root) groups.push_back(std::move(group));
  std::sort(groups.begin(), groups.end());
  return groups;
}

namespace {

/// The exact computation the plain learner would run — fallback output
/// must be byte-identical to --algorithm=idtd / --algorithm=crx.
Result<ReRef> BaselineLearn(const ElementSummary& summary,
                            const LearnOptions& options, bool chare) {
  if (chare) {
    return summary.crx.Infer(summary.soa, options.noise_symbol_threshold);
  }
  IdtdOptions idtd_options = options.idtd;
  if (options.noise_symbol_threshold > 0 &&
      idtd_options.noise_symbol_threshold == 0) {
    idtd_options.noise_symbol_threshold = options.noise_symbol_threshold;
  }
  return IdtdFromSoa(summary.soa, idtd_options);
}

/// Shared core of isore/sire: learn the baseline, look for two-order
/// evidence in the word reservoir, learn one factor per group from the
/// projected words, and emit the shuffle only when every soundness and
/// conciseness guard holds — otherwise the baseline, unchanged.
Result<ReRef> LearnInterleaved(const ElementSummary& summary,
                               const LearnOptions& options, bool chare) {
  Result<ReRef> baseline = BaselineLearn(summary, options, chare);
  if (!baseline.ok()) return baseline;
  // Noise handling drops low-support evidence inside the baseline
  // learners; the word-level order scan cannot see those drops, so the
  // interleaving upgrade only runs on noise-free configurations.
  if (options.noise_symbol_threshold > 0 ||
      options.idtd.noise_symbol_threshold > 0 ||
      options.idtd.noise_edge_threshold > 0) {
    return baseline;
  }
  // Graceful degradation, unlike xtract which errors: without a complete
  // reservoir the order evidence is simply unavailable.
  if (!summary.words_complete || summary.words_overflowed ||
      summary.retained_words.empty()) {
    return baseline;
  }

  std::vector<Word> words(summary.retained_words.begin(),
                          summary.retained_words.end());
  std::vector<std::vector<Symbol>> groups = InterleavingPartition(words);
  if (groups.size() < 2) return baseline;

  std::vector<ReRef> factors;
  factors.reserve(groups.size());
  for (const auto& group : groups) {
    std::set<Symbol> in_group(group.begin(), group.end());
    std::vector<Word> projected;
    projected.reserve(words.size());
    for (const Word& w : words) {
      Word p;
      for (Symbol s : w) {
        if (in_group.count(s) > 0) p.push_back(s);
      }
      projected.push_back(std::move(p));
    }
    Result<ReRef> factor =
        chare ? CrxInfer(projected) : IdtdInfer(projected, options.idtd);
    if (!factor.ok()) return baseline;
    factors.push_back(factor.value());
  }
  ReRef candidate = Re::Shuffle(std::move(factors));

  // Guards, cheapest first. Each factor learner returns a superset of
  // its projections, so the candidate should pass all of these by
  // construction — but the oracles in src/check/ state them as theorems,
  // so the learner enforces rather than assumes them.
  if (!IsSire(candidate)) return baseline;
  if (MatchNfaSizeBound(candidate) > kMaxShuffleProduct) return baseline;
  if (CountTokens(candidate) > CountTokens(baseline.value())) return baseline;
  if (!IsDeterministic(candidate)) return baseline;
  Matcher matcher(candidate);
  for (const Word& w : words) {
    if (!matcher.Matches(w)) return baseline;
  }
  // Conciseness-dominance: never generalize further than the baseline —
  // L(candidate) ⊆ L(baseline) makes the shuffle a strict specialization.
  if (!LanguageSubset(candidate, baseline.value())) return baseline;
  return candidate;
}

class IsoreLearner : public Learner {
 public:
  std::string_view name() const override { return "isore"; }
  std::string_view description() const override {
    return "iDTD SOREs per interleaving factor joined with '&' "
           "(falls back to idtd when order matters)";
  }
  bool needs_full_words() const override { return true; }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    return LearnInterleaved(summary, options, /*chare=*/false);
  }
};

class SireLearner : public Learner {
 public:
  std::string_view name() const override { return "sire"; }
  std::string_view description() const override {
    return "CRX CHAREs per interleaving factor joined with '&' "
           "(falls back to crx when order matters)";
  }
  bool needs_full_words() const override { return true; }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    return LearnInterleaved(summary, options, /*chare=*/true);
  }
};

}  // namespace

std::unique_ptr<Learner> MakeIsoreLearner() {
  return std::make_unique<IsoreLearner>();
}

std::unique_ptr<Learner> MakeSireLearner() {
  return std::make_unique<SireLearner>();
}

}  // namespace condtd
