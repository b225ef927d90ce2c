#ifndef CONDTD_GFA_GFA_H_
#define CONDTD_GFA_GFA_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automaton/soa.h"
#include "regex/ast.h"

namespace condtd {

/// Generalized finite automaton (Section 5): a graph whose internal nodes
/// carry regular expressions; every edge is implicitly labeled by the
/// expression of the node it points into. Node 0 is the unique source,
/// node 1 the unique sink; neither carries a label. The automaton is
/// single occurrence as long as every symbol occurs in at most one node
/// label — which all rewrite/repair rules preserve.
///
/// Removed (merged) nodes stay allocated but dead, so node ids are stable
/// across rule applications.
class Gfa {
 public:
  Gfa();

  /// Builds the GFA of an SOA: one node per state labeled by its symbol;
  /// src→q for initial q, q→snk for final q, plus a direct src→snk edge
  /// when the SOA accepts the empty word. Edge supports carry over (used
  /// by the Section 9 noise handling).
  static Gfa FromSoa(const Soa& soa);

  int source() const { return 0; }
  int sink() const { return 1; }

  int AddNode(ReRef label);
  /// Marks `v` dead and removes all its edges.
  void RemoveNode(int v);

  void AddEdge(int u, int v, int support = 1);
  void RemoveEdge(int u, int v);
  bool HasEdge(int u, int v) const;
  int EdgeSupport(int u, int v) const;

  bool IsAlive(int v) const { return alive_[v]; }
  const ReRef& Label(int v) const { return labels_[v]; }
  void SetLabel(int v, ReRef label) { labels_[v] = std::move(label); }

  /// Live internal nodes (source/sink excluded), ascending id.
  std::vector<int> LiveNodes() const;
  int NumLiveNodes() const;
  int NumEdges() const;

  /// Real out-/in-neighbors, ascending (source/sink included).
  std::vector<int> Out(int v) const;
  std::vector<int> In(int v) const;
  int OutDegree(int v) const { return static_cast<int>(out_[v].size()); }
  int InDegree(int v) const { return static_cast<int>(in_[v].size()); }

  /// True when exactly one internal node r remains and the only edges are
  /// src→r and r→snk.
  bool IsFinal() const;
  /// The label of the single remaining node; IsFinal() must hold.
  ReRef FinalExpression() const;

  /// ε-closure E* of Section 5: real edges, plus virtual self-loops on
  /// nodes labeled s+ or (s+)? (rule (i)), plus pairs connected by a real
  /// path whose intermediate nodes all have nullable labels (rule (ii)).
  /// pred[v] / succ[v] are over E*, one row per node id, each sorted
  /// ascending without duplicates (rows of dead nodes are empty).
  struct Closure {
    std::vector<std::vector<int>> pred;
    std::vector<std::vector<int>> succ;

    /// (u, v) ∈ E*?
    bool Connects(int u, int v) const {
      return std::binary_search(succ[u].begin(), succ[u].end(), v);
    }
  };
  Closure ComputeClosure() const;

  /// ε ∈ L(label(v))? Source/sink count as non-nullable.
  bool NodeNullable(int v) const;

  /// Rule (i) of the closure: label has shape s+, (s+)? or s*.
  bool HasVirtualSelfLoop(int v) const;

  /// Exact equality of two states of one rewriting run: the same node
  /// ids and liveness, real edges and edge supports, and structurally
  /// equal labels (a rule may rebuild an equal label as a new node).
  bool SameAs(const Gfa& other) const;

  /// Debug rendering.
  std::string ToString(const Alphabet& alphabet) const;

 private:
  std::vector<ReRef> labels_;   // null for source/sink
  std::vector<bool> alive_;
  std::vector<std::set<int>> out_;
  std::vector<std::set<int>> in_;
  // Support of edge (u, v); edges merged onto one another accumulate.
  std::map<std::pair<int, int>, int> support_;
};

}  // namespace condtd

#endif  // CONDTD_GFA_GFA_H_
