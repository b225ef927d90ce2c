#ifndef CONDTD_AUTOMATON_SOA_H_
#define CONDTD_AUTOMATON_SOA_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "automaton/nfa.h"
#include "regex/ast.h"

namespace condtd {

/// Single occurrence automaton (Section 3): a Σ-labeled graph where every
/// symbol labels at most one state. Edges implicitly carry the label of
/// the state they point into, so the structure is fully determined by the
/// symbol set, the edge relation over symbols, and the initial/final
/// symbol sets. The unique source/sink of the paper are kept implicit as
/// the initial/final sets. The empty word is tracked as a flag because
/// SOREs cannot denote ε.
///
/// Every edge, initial marker and final marker carries a support count:
/// how many times 2T-INF observed it. Supports drive the Section 9 noise
/// handling and are ignored by the core algorithms.
class Soa {
 public:
  Soa() = default;

  /// Adds (or finds) the state labeled `symbol`; returns its index.
  int AddState(Symbol symbol);

  /// Returns the state index of `symbol` or -1.
  int StateOf(Symbol symbol) const;

  Symbol LabelOf(int state) const { return labels_[state]; }
  int NumStates() const { return static_cast<int>(labels_.size()); }
  int NumEdges() const;

  void AddEdge(int from, int to, int support = 1);
  void AddInitial(int state, int support = 1);
  void AddFinal(int state, int support = 1);

  bool HasEdge(int from, int to) const;
  bool IsInitial(int state) const;
  bool IsFinal(int state) const;

  int EdgeSupport(int from, int to) const;
  int InitialSupport(int state) const;
  int FinalSupport(int state) const;
  /// Occurrence count of the state's symbol across the sample.
  int StateSupport(int state) const { return state_support_[state]; }
  void AddStateSupport(int state, int amount) {
    state_support_[state] += amount;
  }

  void RemoveEdge(int from, int to);

  /// Successor / predecessor state indices, ascending.
  std::vector<int> Successors(int state) const;
  /// The edge relation over symbols: (from, to) label pairs, ascending.
  /// For the 2T-INF SOA of a sample this is CRX's successor relation →_W.
  std::vector<std::pair<Symbol, Symbol>> SymbolEdges() const;
  std::vector<int> Predecessors(int state) const;
  std::vector<int> Initials() const;
  std::vector<int> Finals() const;

  bool accepts_empty() const { return accepts_empty_; }
  void set_accepts_empty(bool value) { accepts_empty_ = value; }
  int empty_support() const { return empty_support_; }
  void add_empty_support(int amount) { empty_support_ += amount; }

  /// Merges `other` into this SOA: union of states, edges and
  /// initial/final markers with support counts summed (Section 9
  /// "incremental computation" — the SOA summary is associative, which
  /// is what makes sharded ingestion mergeable). `other` must not alias
  /// this. The merge is associative and, up to state numbering,
  /// commutative; `Gfa::FromSoa` canonicalizes the numbering away, so
  /// downstream learners see identical automata for any merge order.
  void MergeFrom(const Soa& other);

  /// As above, but `other`'s symbols are first translated through
  /// `remap` (indexed by `other`'s symbol ids) — used when the shards
  /// being merged interned their alphabets independently.
  void MergeFrom(const Soa& other, const std::vector<Symbol>& remap);

  /// 2-testable membership: first symbol initial, last symbol final,
  /// every adjacent pair an edge. The empty word needs accepts_empty.
  bool Accepts(const Word& word) const;

  /// Structural equality (Proposition 1: SOAs are unique up to
  /// isomorphism, and symbol labels pin the isomorphism): same symbol
  /// set, edges, initial/final sets and empty-word flag. Supports are
  /// ignored.
  bool Equals(const Soa& other) const;

  /// Conversion to an NFA over symbols (for DFA-based language checks).
  Nfa ToNfa() const;

  /// Multi-line debug rendering using `alphabet` names.
  std::string ToString(const Alphabet& alphabet) const;

  /// Rough resident bytes of this SOA (see base/mem_estimate.h for the
  /// estimation contract). Feeds SummaryStore::ApproxBytes.
  size_t ApproxBytes() const;

 private:
  void MergeMapped(const Soa& other, const std::vector<Symbol>* remap);

  std::vector<Symbol> labels_;
  std::unordered_map<Symbol, int> state_of_;
  /// Dense fast path over state_of_ for symbols below the fold kernels'
  /// id window (-1 = absent). state_of_ stays authoritative — this is a
  /// cache that AddState/StateOf consult first, sized lazily to the
  /// largest windowed symbol seen.
  std::vector<int> dense_state_of_;
  std::vector<std::unordered_map<int, int>> out_;  // state -> {to: support}
  std::unordered_map<int, int> initial_;           // state -> support
  std::unordered_map<int, int> final_;             // state -> support
  std::vector<int> state_support_;
  bool accepts_empty_ = false;
  int empty_support_ = 0;
};

/// The unique SOA of a SORE (Proposition 1). For non-SORE input this
/// yields the Glushkov automaton projected onto symbols, i.e. the
/// tightest SOA with L(re) ⊆ L(soa).
Soa SoaFromRegex(const ReRef& re);

/// Section 9 noise handling, the "obvious way": a copy of `soa` without
/// the states whose symbol support is below `min_state_support` (their
/// edges disappear with them; no bridging edges are invented). A SOA
/// whose supports were never populated is returned unchanged.
Soa PruneSoaByStateSupport(const Soa& soa, int min_state_support);

}  // namespace condtd

#endif  // CONDTD_AUTOMATON_SOA_H_
