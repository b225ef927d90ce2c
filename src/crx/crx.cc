#include "crx/crx.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "automaton/two_t_inf.h"
#include "base/fold_scratch.h"
#include "base/mem_estimate.h"
#include "obs/metrics.h"

namespace condtd {

namespace {

/// Hash of a sorted histogram: a multiply-xorshift fold over its packed
/// (symbol, count) pairs.
uint64_t HashHistogram(CrxState::HistogramView histogram) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ histogram.size();
  for (const auto& [symbol, count] : histogram) {
    h ^= (static_cast<uint64_t>(static_cast<uint32_t>(symbol)) << 32) |
         static_cast<uint32_t>(count);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

void CrxState::AddWord(const Word& word) { AddWord(word, 1); }

void CrxState::AddWord(const Word& word, int64_t multiplicity) {
  if (multiplicity <= 0) return;
  num_words_ += multiplicity;
  if (word.empty()) {
    empty_count_ += multiplicity;
    return;
  }
  Symbol min_symbol = word[0];
  Symbol max_symbol = word[0];
  for (Symbol s : word) {
    min_symbol = std::min(min_symbol, s);
    max_symbol = std::max(max_symbol, s);
  }
  FoldScratch& scratch = GetFoldScratch();
  Histogram& histogram = scratch.histogram;
  histogram.clear();
  if (min_symbol >= 0 && max_symbol < kDenseFoldWindow) {
    // Dense kernel: per-symbol totals through a flat counter, then one
    // sort of the distinct symbols.
    scratch.counts.Reset();
    for (Symbol s : word) scratch.counts.Add(s, 1);
    std::vector<int32_t>& distinct = scratch.counts.touched();
    std::sort(distinct.begin(), distinct.end());
    for (int32_t s : distinct) {
      histogram.emplace_back(s, static_cast<int>(scratch.counts.count_of(s)));
    }
  } else {
    // Generic path, for symbols outside the dense-ID window: sort a copy
    // and count runs. Same histogram as the dense kernel.
    Word sorted = word;
    std::sort(sorted.begin(), sorted.end());
    for (Symbol s : sorted) {
      if (histogram.empty() || histogram.back().first != s) {
        histogram.emplace_back(s, 0);
      }
      ++histogram.back().second;
    }
  }
  Insert(HashHistogram(histogram), histogram, multiplicity);
}

void CrxState::AddWords(const std::vector<Word>& words) {
  for (const Word& w : words) AddWord(w);
}

void CrxState::Insert(uint64_t hash, HistogramView histogram,
                      int64_t count) {
  if ((entries_.size() + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  for (size_t step = 1;; ++step) {
    const uint32_t id = slots_[slot];
    if (id == 0) break;
    Entry& entry = entries_[id - 1];
    if (entry.hash == hash && entry.length == histogram.size() &&
        std::equal(histogram.begin(), histogram.end(),
                   pool_.begin() + entry.offset)) {
      entry.count += count;
      return;
    }
    slot = (slot + step) & mask;
  }
  Entry entry;
  entry.hash = hash;
  entry.offset = static_cast<uint32_t>(pool_.size());
  entry.length = static_cast<uint32_t>(histogram.size());
  entry.count = count;
  pool_.insert(pool_.end(), histogram.begin(), histogram.end());
  entries_.push_back(entry);
  slots_[slot] = static_cast<uint32_t>(entries_.size());
}

void CrxState::Grow() {
  const size_t next = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(next, 0);
  const size_t mask = next - 1;
  for (uint32_t id = 1; id <= entries_.size(); ++id) {
    size_t slot = static_cast<size_t>(entries_[id - 1].hash) & mask;
    for (size_t step = 1; slots_[slot] != 0; ++step) {
      slot = (slot + step) & mask;
    }
    slots_[slot] = id;
  }
}

std::vector<std::pair<CrxState::Histogram, int64_t>>
CrxState::SortedHistograms() const {
  std::vector<std::pair<Histogram, int64_t>> sorted;
  sorted.reserve(entries_.size());
  ForEachHistogram([&](HistogramView histogram, int64_t count) {
    sorted.emplace_back(Histogram(histogram.begin(), histogram.end()),
                        count);
  });
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void CrxState::RestoreHistogram(const Histogram& histogram, int64_t count) {
  Insert(HashHistogram(histogram), histogram, count);
  num_words_ += count;
}

void CrxState::RestoreEmpty(int64_t count) {
  empty_count_ += count;
  num_words_ += count;
}

void CrxState::MergeFrom(const CrxState& other) {
  // The hash depends only on the histogram, so other's stored hashes
  // are valid here.
  for (const Entry& entry : other.entries_) {
    Insert(entry.hash, other.View(entry), entry.count);
  }
  empty_count_ += other.empty_count_;
  num_words_ += other.num_words_;
}

void CrxState::MergeFrom(const CrxState& other,
                         const std::vector<Symbol>& remap) {
  Histogram translated;
  other.ForEachHistogram([&](HistogramView histogram, int64_t count) {
    translated.clear();
    for (const auto& [sym, n] : histogram) {
      translated.emplace_back(remap[sym], n);
    }
    // Remapping can reorder entries; pooled histograms stay sorted.
    std::sort(translated.begin(), translated.end());
    Insert(HashHistogram(translated), translated, count);
  });
  empty_count_ += other.empty_count_;
  num_words_ += other.num_words_;
}

namespace {

/// Tarjan's strongly connected components over the symbol graph. Returns
/// class ids per symbol index; classes are numbered in reverse
/// topological discovery order (we re-sort later anyway).
class SccFinder {
 public:
  SccFinder(const std::vector<Symbol>& symbols,
            const std::vector<std::pair<Symbol, Symbol>>& edges) {
    int n = static_cast<int>(symbols.size());
    for (int i = 0; i < n; ++i) index_of_[symbols[i]] = i;
    adj_.resize(n);
    for (const auto& [a, b] : edges) {
      adj_[index_of_.at(a)].push_back(index_of_.at(b));
    }
    low_.assign(n, -1);
    disc_.assign(n, -1);
    on_stack_.assign(n, false);
    component_.assign(n, -1);
    for (int v = 0; v < n; ++v) {
      if (disc_[v] < 0) Visit(v);
    }
  }

  int ComponentOf(int v) const { return component_[v]; }
  int num_components() const { return num_components_; }

 private:
  void Visit(int root) {
    // Iterative Tarjan to survive deep graphs.
    struct Frame {
      int v;
      size_t next_child = 0;
    };
    std::vector<Frame> call_stack = {{root}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      int v = frame.v;
      if (frame.next_child == 0) {
        disc_[v] = low_[v] = timer_++;
        stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      while (frame.next_child < adj_[v].size()) {
        int w = adj_[v][frame.next_child++];
        if (disc_[w] < 0) {
          call_stack.push_back({w});
          descended = true;
          break;
        }
        if (on_stack_[w]) low_[v] = std::min(low_[v], disc_[w]);
      }
      if (descended) continue;
      if (low_[v] == disc_[v]) {
        while (true) {
          int w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = num_components_;
          if (w == v) break;
        }
        ++num_components_;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        int parent = call_stack.back().v;
        low_[parent] = std::min(low_[parent], low_[v]);
      }
    }
  }

  std::map<Symbol, int> index_of_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> low_, disc_, component_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  int timer_ = 0;
  int num_components_ = 0;
};

}  // namespace

Result<ReRef> CrxState::Infer(const Soa& soa,
                              int min_symbol_support) const {
  obs::StageSpan span(obs::Stage::kCrxInfer);
  obs::CounterAdd(obs::Counter::kCrxInferCalls, 1);
  // The SOA of the same words carries the symbol set (its states) and
  // →_W (its edges).
  std::vector<Symbol> symbols;
  symbols.reserve(soa.NumStates());
  for (int q = 0; q < soa.NumStates(); ++q) symbols.push_back(soa.LabelOf(q));
  std::sort(symbols.begin(), symbols.end());
  // Section 9 noise handling: exclude symbols below the support
  // threshold (total occurrences across the sample). A support is only
  // compared with the threshold, so it saturates there: n * count alone
  // can leave int64 on a state Load accepts.
  if (min_symbol_support > 0) {
    std::vector<int64_t> support(symbols.size(), 0);
    ForEachHistogram([&](HistogramView histogram, int64_t count) {
      for (const auto& [sym, n] : histogram) {
        auto it = std::lower_bound(symbols.begin(), symbols.end(), sym);
        if (it == symbols.end() || *it != sym || n <= 0) continue;
        int64_t& total = support[it - symbols.begin()];
        const int64_t missing = min_symbol_support - total;
        if (missing <= 0) continue;
        total = count >= (missing + n - 1) / n ? min_symbol_support
                                                : total + n * count;
      }
    });
    size_t kept = 0;
    for (size_t i = 0; i < symbols.size(); ++i) {
      if (support[i] >= min_symbol_support) symbols[kept++] = symbols[i];
    }
    symbols.resize(kept);
  }
  if (symbols.empty()) {
    return Status::FailedPrecondition(
        "CRX: no symbol observed (language is empty or {ε})");
  }
  auto is_kept = [&](Symbol s) {
    return std::binary_search(symbols.begin(), symbols.end(), s);
  };
  std::vector<std::pair<Symbol, Symbol>> edges;
  for (const auto& [a, b] : soa.SymbolEdges()) {
    if (is_kept(a) && is_kept(b)) edges.emplace_back(a, b);
  }

  // Step 1: equivalence classes of ≈_W = SCCs of →_W.
  SccFinder scc(symbols, edges);
  int num_classes = scc.num_components();
  std::vector<std::vector<Symbol>> members(num_classes);
  for (size_t i = 0; i < symbols.size(); ++i) {
    members[scc.ComponentOf(static_cast<int>(i))].push_back(symbols[i]);
  }
  std::map<Symbol, int> class_of;
  for (int c = 0; c < num_classes; ++c) {
    for (Symbol s : members[c]) class_of[s] = c;
  }

  // Class-level DAG of the partial order ≼_W.
  std::vector<std::set<int>> succ(num_classes);
  for (const auto& [a, b] : edges) {
    int ca = class_of.at(a);
    int cb = class_of.at(b);
    if (ca != cb) succ[ca].insert(cb);
  }

  // Hasse diagram: drop transitive edges. reach[c] = classes reachable
  // from c via >= 1 edge, computed bottom-up in reverse topological
  // order of the DAG.
  std::vector<int> topo;
  {
    std::vector<int> indegree(num_classes, 0);
    for (int c = 0; c < num_classes; ++c) {
      for (int d : succ[c]) ++indegree[d];
    }
    std::queue<int> ready;
    for (int c = 0; c < num_classes; ++c) {
      if (indegree[c] == 0) ready.push(c);
    }
    while (!ready.empty()) {
      int c = ready.front();
      ready.pop();
      topo.push_back(c);
      for (int d : succ[c]) {
        if (--indegree[d] == 0) ready.push(d);
      }
    }
  }
  std::vector<std::set<int>> reach(num_classes);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    int c = *it;
    for (int d : succ[c]) {
      reach[c].insert(d);
      reach[c].insert(reach[d].begin(), reach[d].end());
    }
  }
  for (int c = 0; c < num_classes; ++c) {
    std::set<int> direct = succ[c];
    for (int d : direct) {
      // (c, d) is transitive iff d is reachable from another successor.
      for (int e : direct) {
        if (e != d && reach[e].count(d) > 0) {
          succ[c].erase(d);
          break;
        }
      }
    }
  }
  std::vector<std::set<int>> pred(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    for (int d : succ[c]) pred[d].insert(c);
  }

  // Steps 2-3: repeatedly merge maximal sets of singleton nodes sharing
  // predecessor and successor sets in the Hasse diagram.
  std::vector<bool> alive(num_classes, true);
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    std::map<std::pair<std::vector<int>, std::vector<int>>, std::vector<int>>
        groups;
    for (int c = 0; c < num_classes; ++c) {
      if (!alive[c] || members[c].size() != 1) continue;
      groups[{std::vector<int>(pred[c].begin(), pred[c].end()),
              std::vector<int>(succ[c].begin(), succ[c].end())}]
          .push_back(c);
    }
    for (const auto& [key, group] : groups) {
      if (group.size() < 2) continue;
      int target = group[0];
      for (size_t i = 1; i < group.size(); ++i) {
        int c = group[i];
        members[target].push_back(members[c][0]);
        alive[c] = false;
        for (int p : pred[c]) succ[p].erase(c);
        for (int s : succ[c]) pred[s].erase(c);
        succ[c].clear();
        pred[c].clear();
      }
      std::sort(members[target].begin(), members[target].end());
      merged_any = true;
      break;  // neighborhoods changed; recompute the grouping
    }
  }

  // Step 4: deterministic topological sort — among ready classes pick the
  // one whose smallest member symbol is smallest.
  std::vector<int> order;
  {
    std::vector<int> indegree(num_classes, 0);
    for (int c = 0; c < num_classes; ++c) {
      if (!alive[c]) continue;
      for (int d : succ[c]) ++indegree[d];
    }
    auto key = [&](int c) {
      return *std::min_element(members[c].begin(), members[c].end());
    };
    auto cmp = [&](int a, int b) { return key(a) > key(b); };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> ready(cmp);
    for (int c = 0; c < num_classes; ++c) {
      if (alive[c] && indegree[c] == 0) ready.push(c);
    }
    while (!ready.empty()) {
      int c = ready.top();
      ready.pop();
      order.push_back(c);
      for (int d : succ[c]) {
        if (--indegree[d] == 0) ready.push(d);
      }
    }
  }

  // Steps 5-13: qualifiers from per-word occurrence totals.
  std::vector<ReRef> factors;
  factors.reserve(order.size());
  for (int c : order) {
    bool all_exactly_one = true;
    bool all_at_most_one = true;
    bool all_at_least_one = true;
    bool any_two_or_more = false;
    auto account = [&](int total) {
      if (total != 1) all_exactly_one = false;
      if (total > 1) {
        all_at_most_one = false;
        any_two_or_more = true;
      }
      if (total < 1) all_at_least_one = false;
    };
    ForEachHistogram([&](HistogramView histogram, int64_t) {
      int total = 0;
      for (const auto& [sym, n] : histogram) {
        if (std::binary_search(members[c].begin(), members[c].end(), sym)) {
          total += n;
        }
      }
      account(total);
    });
    if (empty_count_ > 0) account(0);

    std::vector<ReRef> alts;
    alts.reserve(members[c].size());
    for (Symbol s : members[c]) alts.push_back(Re::Sym(s));
    ReRef factor = Re::Disj(std::move(alts));
    if (all_exactly_one) {
      // bare (a1 + ... + an)
    } else if (all_at_most_one) {
      factor = Re::Opt(factor);
    } else if (all_at_least_one && any_two_or_more) {
      factor = Re::Plus(factor);
    } else {
      factor = Re::Star(factor);
    }
    factors.push_back(std::move(factor));
  }
  obs::CounterAdd(obs::Counter::kCrxFactors,
                  static_cast<int64_t>(factors.size()));
  return Re::Concat(std::move(factors));
}

size_t CrxState::ApproxBytes() const {
  return sizeof(*this) + VectorBytes(pool_) + VectorBytes(entries_) +
         VectorBytes(slots_);
}

Result<ReRef> CrxInfer(const std::vector<Word>& sample) {
  CrxState state;
  state.AddWords(sample);
  return state.Infer(Infer2T(sample));
}

}  // namespace condtd
