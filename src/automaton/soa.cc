#include "automaton/soa.h"

#include <algorithm>
#include <set>

#include "base/fold_scratch.h"
#include "base/mem_estimate.h"
#include "regex/properties.h"

namespace condtd {

int Soa::AddState(Symbol symbol) {
  if (symbol >= 0 && symbol < kDenseFoldWindow) {
    if (static_cast<size_t>(symbol) >= dense_state_of_.size()) {
      dense_state_of_.resize(static_cast<size_t>(symbol) + 1, -1);
    }
    int& cached = dense_state_of_[symbol];
    if (cached >= 0) return cached;
    int id = NumStates();
    labels_.push_back(symbol);
    out_.emplace_back();
    state_support_.push_back(0);
    state_of_.emplace(symbol, id);
    cached = id;
    return id;
  }
  auto it = state_of_.find(symbol);
  if (it != state_of_.end()) return it->second;
  int id = NumStates();
  labels_.push_back(symbol);
  out_.emplace_back();
  state_support_.push_back(0);
  state_of_.emplace(symbol, id);
  return id;
}

int Soa::StateOf(Symbol symbol) const {
  if (symbol >= 0 && static_cast<size_t>(symbol) < dense_state_of_.size()) {
    return dense_state_of_[symbol];
  }
  auto it = state_of_.find(symbol);
  return it == state_of_.end() ? -1 : it->second;
}

int Soa::NumEdges() const {
  int total = 0;
  for (const auto& adj : out_) total += static_cast<int>(adj.size());
  return total;
}

void Soa::AddEdge(int from, int to, int support) {
  out_[from][to] += support;
}

void Soa::AddInitial(int state, int support) { initial_[state] += support; }

void Soa::AddFinal(int state, int support) { final_[state] += support; }

bool Soa::HasEdge(int from, int to) const {
  return out_[from].count(to) > 0;
}

bool Soa::IsInitial(int state) const { return initial_.count(state) > 0; }

bool Soa::IsFinal(int state) const { return final_.count(state) > 0; }

int Soa::EdgeSupport(int from, int to) const {
  auto it = out_[from].find(to);
  return it == out_[from].end() ? 0 : it->second;
}

int Soa::InitialSupport(int state) const {
  auto it = initial_.find(state);
  return it == initial_.end() ? 0 : it->second;
}

int Soa::FinalSupport(int state) const {
  auto it = final_.find(state);
  return it == final_.end() ? 0 : it->second;
}

void Soa::RemoveEdge(int from, int to) { out_[from].erase(to); }

std::vector<int> Soa::Successors(int state) const {
  std::vector<int> out;
  out.reserve(out_[state].size());
  for (const auto& [to, support] : out_[state]) out.push_back(to);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<Symbol, Symbol>> Soa::SymbolEdges() const {
  std::vector<std::pair<Symbol, Symbol>> edges;
  for (int q = 0; q < NumStates(); ++q) {
    for (const auto& [to, support] : out_[q]) {
      edges.emplace_back(labels_[q], labels_[to]);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<int> Soa::Predecessors(int state) const {
  std::vector<int> preds;
  for (int q = 0; q < NumStates(); ++q) {
    if (out_[q].count(state) > 0) preds.push_back(q);
  }
  return preds;
}

std::vector<int> Soa::Initials() const {
  std::vector<int> out;
  out.reserve(initial_.size());
  for (const auto& [s, support] : initial_) out.push_back(s);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> Soa::Finals() const {
  std::vector<int> out;
  out.reserve(final_.size());
  for (const auto& [s, support] : final_) out.push_back(s);
  std::sort(out.begin(), out.end());
  return out;
}

void Soa::MergeFrom(const Soa& other) { MergeMapped(other, nullptr); }

void Soa::MergeFrom(const Soa& other, const std::vector<Symbol>& remap) {
  MergeMapped(other, &remap);
}

void Soa::MergeMapped(const Soa& other, const std::vector<Symbol>* remap) {
  auto translate = [remap](Symbol s) {
    return remap == nullptr ? s : (*remap)[s];
  };
  for (int q = 0; q < other.NumStates(); ++q) {
    int mine = AddState(translate(other.labels_[q]));
    state_support_[mine] += other.state_support_[q];
  }
  for (const auto& [q, support] : other.initial_) {
    AddInitial(StateOf(translate(other.labels_[q])), support);
  }
  for (const auto& [q, support] : other.final_) {
    AddFinal(StateOf(translate(other.labels_[q])), support);
  }
  for (int q = 0; q < other.NumStates(); ++q) {
    int from = StateOf(translate(other.labels_[q]));
    for (const auto& [to, support] : other.out_[q]) {
      AddEdge(from, StateOf(translate(other.labels_[to])), support);
    }
  }
  if (other.accepts_empty_) {
    accepts_empty_ = true;
    empty_support_ += other.empty_support_;
  }
}

bool Soa::Accepts(const Word& word) const {
  if (word.empty()) return accepts_empty_;
  int prev = StateOf(word[0]);
  if (prev < 0 || !IsInitial(prev)) return false;
  for (size_t i = 1; i < word.size(); ++i) {
    int cur = StateOf(word[i]);
    if (cur < 0 || !HasEdge(prev, cur)) return false;
    prev = cur;
  }
  return IsFinal(prev);
}

bool Soa::Equals(const Soa& other) const {
  if (NumStates() != other.NumStates()) return false;
  if (accepts_empty_ != other.accepts_empty_) return false;
  for (int q = 0; q < NumStates(); ++q) {
    int oq = other.StateOf(labels_[q]);
    if (oq < 0) return false;
    if (IsInitial(q) != other.IsInitial(oq)) return false;
    if (IsFinal(q) != other.IsFinal(oq)) return false;
  }
  for (int q = 0; q < NumStates(); ++q) {
    int oq = other.StateOf(labels_[q]);
    std::set<Symbol> mine;
    for (const auto& [to, support] : out_[q]) mine.insert(labels_[to]);
    std::set<Symbol> theirs;
    for (const auto& [to, support] : other.out_[oq]) {
      theirs.insert(other.labels_[to]);
    }
    if (mine != theirs) return false;
  }
  return true;
}

Nfa Soa::ToNfa() const {
  Nfa nfa;
  int source = nfa.AddState(accepts_empty_);
  nfa.set_initial(source);
  std::vector<int> state_ids(NumStates());
  for (int q = 0; q < NumStates(); ++q) {
    state_ids[q] = nfa.AddState(IsFinal(q));
  }
  for (const auto& [q, support] : initial_) {
    nfa.AddTransition(source, labels_[q], state_ids[q]);
  }
  for (int q = 0; q < NumStates(); ++q) {
    for (const auto& [to, support] : out_[q]) {
      nfa.AddTransition(state_ids[q], labels_[to], state_ids[to]);
    }
  }
  return nfa;
}

std::string Soa::ToString(const Alphabet& alphabet) const {
  std::string out = "SOA{\n  initial:";
  for (int q : Initials()) {
    out += ' ';
    out += alphabet.Name(labels_[q]);
  }
  out += "\n  final:";
  for (int q : Finals()) {
    out += ' ';
    out += alphabet.Name(labels_[q]);
  }
  out += "\n  edges:";
  for (int q = 0; q < NumStates(); ++q) {
    std::vector<int> succ = Successors(q);
    for (int to : succ) {
      out += ' ';
      out += alphabet.Name(labels_[q]);
      out += "->";
      out += alphabet.Name(labels_[to]);
    }
  }
  out += accepts_empty_ ? "\n  accepts_empty: true\n}" : "\n}";
  return out;
}

Soa PruneSoaByStateSupport(const Soa& soa, int min_state_support) {
  bool any_support = false;
  for (int q = 0; q < soa.NumStates(); ++q) {
    if (soa.StateSupport(q) > 0) any_support = true;
  }
  if (!any_support || min_state_support <= 0) return soa;
  Soa pruned;
  for (int q = 0; q < soa.NumStates(); ++q) {
    if (soa.StateSupport(q) >= min_state_support) {
      pruned.AddState(soa.LabelOf(q));
    }
  }
  for (int q = 0; q < soa.NumStates(); ++q) {
    int pq = pruned.StateOf(soa.LabelOf(q));
    if (pq < 0) continue;
    if (soa.IsInitial(q)) pruned.AddInitial(pq, soa.InitialSupport(q));
    if (soa.IsFinal(q)) pruned.AddFinal(pq, soa.FinalSupport(q));
    pruned.AddStateSupport(pq, soa.StateSupport(q));
    for (int to : soa.Successors(q)) {
      int pto = pruned.StateOf(soa.LabelOf(to));
      if (pto >= 0) pruned.AddEdge(pq, pto, soa.EdgeSupport(q, to));
    }
  }
  pruned.set_accepts_empty(soa.accepts_empty());
  pruned.add_empty_support(soa.empty_support());
  return pruned;
}

size_t Soa::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  bytes += VectorBytes(labels_) + VectorBytes(dense_state_of_) +
           VectorBytes(state_support_);
  bytes += HashBytes(state_of_) + HashBytes(initial_) + HashBytes(final_);
  bytes += VectorBytes(out_);
  for (const auto& edges : out_) bytes += HashBytes(edges);
  return bytes;
}

Soa SoaFromRegex(const ReRef& re) {
  SymbolSets sets = ComputeSymbolSets(re);
  Soa soa;
  for (Symbol s : SymbolsOf(re)) soa.AddState(s);
  for (Symbol s : sets.first) soa.AddInitial(soa.StateOf(s));
  for (Symbol s : sets.last) soa.AddFinal(soa.StateOf(s));
  for (const auto& [a, b] : sets.follow) {
    soa.AddEdge(soa.StateOf(a), soa.StateOf(b));
  }
  soa.set_accepts_empty(sets.nullable);
  return soa;
}

}  // namespace condtd
