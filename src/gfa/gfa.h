#ifndef CONDTD_GFA_GFA_H_
#define CONDTD_GFA_GFA_H_

#include <algorithm>
#include <cstdint>
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
/// across rule applications. Adjacency is kept in flat rows sorted by
/// node id: per node, its out-edges with their supports and its
/// in-neighbors.
class Gfa {
 public:
  /// A real edge out of a node. Supports are 64-bit: merging edges sums
  /// them, and a sum of n SOA supports (each 32-bit) cannot overflow.
  struct OutEdge {
    int to;
    int64_t support;

    bool operator==(const OutEdge& other) const {
      return to == other.to && support == other.support;
    }
  };

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

  /// Adds the edge, or adds `support` to an existing one.
  void AddEdge(int u, int v, int64_t support = 1);
  void RemoveEdge(int u, int v);
  bool HasEdge(int u, int v) const;
  /// 0 when there is no edge (u, v).
  int64_t EdgeSupport(int u, int v) const;

  bool IsAlive(int v) const { return alive_[v]; }
  const ReRef& Label(int v) const { return labels_[v]; }
  void SetLabel(int v, ReRef label);

  /// Live internal nodes (source/sink excluded), ascending id.
  std::vector<int> LiveNodes() const;
  int NumLiveNodes() const;
  int NumEdges() const;

  /// Real out-edges of `v`, ascending target. The reference is valid
  /// until the next AddNode.
  const std::vector<OutEdge>& OutEdges(int v) const { return out_[v]; }
  /// Real out-neighbors, ascending (source/sink included).
  std::vector<int> Out(int v) const;
  /// Real in-neighbors, ascending. The reference is valid until the next
  /// AddNode.
  const std::vector<int>& In(int v) const { return in_[v]; }
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
  /// E* of the current automaton. It is rebuilt, into the rows the last
  /// build left, on the first call after an AddNode, RemoveNode or
  /// SetLabel, or an AddEdge or RemoveEdge that changes the edge set;
  /// other calls return the cached rows. A change leaves the rows as
  /// they were, so a rule may keep reading the closure it decided on
  /// while it rewrites the automaton.
  const Closure& closure();

  /// ε ∈ L(label(v))? Source/sink count as non-nullable.
  bool NodeNullable(int v) const { return nullable_[v]; }

  /// Rule (i) of the closure: label has shape s+, (s+)? or s*.
  bool HasVirtualSelfLoop(int v) const;

  /// Exact equality of two states of one rewriting run: the same node
  /// ids and liveness, real edges and edge supports, and structurally
  /// equal labels (a rule may rebuild an equal label as a new node).
  bool SameAs(const Gfa& other) const;

  /// Debug rendering.
  std::string ToString(const Alphabet& alphabet) const;

 private:
  void RebuildClosure();

  std::vector<ReRef> labels_;  // null for source/sink
  std::vector<bool> alive_;
  std::vector<char> nullable_;  // Nullable(label), false for source/sink
  std::vector<std::vector<OutEdge>> out_;
  std::vector<std::vector<int>> in_;

  Closure closure_;
  bool closure_valid_ = false;
  // visited_[w] == u marks w as already in closure_.succ[u].
  std::vector<int> visited_;
};

}  // namespace condtd

#endif  // CONDTD_GFA_GFA_H_
