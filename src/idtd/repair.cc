#include "idtd/repair.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace condtd {

namespace {

/// Number of elements of `a` not in `b`; both are sorted closure rows.
int DifferenceSize(const std::vector<int>& a, const std::vector<int>& b) {
  int count = 0;
  auto ib = b.begin();
  for (int x : a) {
    while (ib != b.end() && *ib < x) ++ib;
    if (ib == b.end() || *ib != x) ++count;
  }
  return count;
}

bool Intersects(const std::vector<int>& a, const std::vector<int>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

/// The sorted closure row `row` without `x`.
std::vector<int> Without(const std::vector<int>& row, int x) {
  std::vector<int> rest;
  rest.reserve(row.size());
  for (int y : row) {
    if (y != x) rest.push_back(y);
  }
  return rest;
}

/// The real-edge additions needed to equalize In/Out neighborhoods of u
/// and v (the paper's "minimal set of edges such that Pred(ri) = Pred(rj)
/// and Succ(ri) = Succ(rj)").
std::set<std::pair<int, int>> EqualizationEdges(const Gfa& gfa, int u,
                                                int v) {
  std::set<std::pair<int, int>> additions;
  std::set<int> target_in;
  for (int p : gfa.In(u)) target_in.insert(p);
  for (int p : gfa.In(v)) target_in.insert(p);
  std::set<int> target_out;
  for (int s : gfa.Out(u)) target_out.insert(s);
  for (int s : gfa.Out(v)) target_out.insert(s);
  for (int node : {u, v}) {
    for (int p : target_in) {
      if (!gfa.HasEdge(p, node)) additions.emplace(p, node);
    }
    for (int s : target_out) {
      if (!gfa.HasEdge(node, s)) additions.emplace(node, s);
    }
  }
  return additions;
}

}  // namespace

bool EnableDisjunction(Gfa* gfa, int k) {
  const Gfa::Closure& closure = gfa->closure();
  std::vector<int> live = gfa->LiveNodes();
  // Mutually connected pairs (precondition (b)) carry direct evidence of
  // a disjunction class and are preferred over merely similar pairs
  // (precondition (a)) — this is the choice the paper's Figure 2
  // walkthrough makes ({a, c} rather than a cheaper similarity pair).
  int best_cost_b = std::numeric_limits<int>::max();
  std::pair<int, int> best_b{-1, -1};
  int best_cost_a = std::numeric_limits<int>::max();
  std::pair<int, int> best_a{-1, -1};
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = i + 1; j < live.size(); ++j) {
      int u = live[i];
      int v = live[j];
      const auto& pu = closure.pred[u];
      const auto& pv = closure.pred[v];
      const auto& su = closure.succ[u];
      const auto& sv = closure.succ[v];
      bool case_b = closure.Connects(u, v) && closure.Connects(v, u);
      bool case_a = Intersects(pu, pv) && Intersects(su, sv) &&
                    DifferenceSize(pu, pv) <= k &&
                    DifferenceSize(pv, pu) <= k &&
                    DifferenceSize(su, sv) <= k &&
                    DifferenceSize(sv, su) <= k;
      if (!case_a && !case_b) continue;
      int cost = static_cast<int>(EqualizationEdges(*gfa, u, v).size());
      if (cost == 0) continue;  // nothing to repair here
      if (case_b && cost < best_cost_b) {
        best_cost_b = cost;
        best_b = {u, v};
      } else if (!case_b && cost < best_cost_a) {
        best_cost_a = cost;
        best_a = {u, v};
      }
    }
  }
  std::pair<int, int> best_pair = best_b.first >= 0 ? best_b : best_a;
  if (best_pair.first < 0) return false;
  for (const auto& [p, s] :
       EqualizationEdges(*gfa, best_pair.first, best_pair.second)) {
    gfa->AddEdge(p, s, 1);
  }
  return true;
}

bool EnableOptional(Gfa* gfa, int k) {
  const Gfa::Closure& closure = gfa->closure();
  // Candidates with real skip evidence (precondition (a)) are preferred
  // over structural guesses (precondition (b)).
  int best_cost_a = std::numeric_limits<int>::max();
  int best_node_a = -1;
  int best_cost_b = std::numeric_limits<int>::max();
  int best_node_b = -1;
  for (int r : gfa->LiveNodes()) {
    std::vector<int> preds = Without(closure.pred[r], r);
    std::vector<int> succs = Without(closure.succ[r], r);
    if (preds.empty() || succs.empty()) continue;

    bool skip_evidence = false;
    int missing = 0;
    for (int p : preds) {
      for (int s : succs) {
        if (gfa->HasEdge(p, s)) {
          skip_evidence = true;
        } else {
          ++missing;
        }
      }
    }
    bool case_a = skip_evidence;
    bool case_b = false;
    if (preds.size() == 1) {
      // |Succ(r') \ {r, r'}| <= k; r' != r, since preds excludes r.
      int rp = preds[0];
      int others = static_cast<int>(closure.succ[rp].size()) -
                   closure.Connects(rp, r) - closure.Connects(rp, rp);
      case_b = others <= k;
    }
    if (!case_a && !case_b) continue;
    if (missing == 0) continue;
    if (case_a && missing < best_cost_a) {
      best_cost_a = missing;
      best_node_a = r;
    } else if (!case_a && missing < best_cost_b) {
      best_cost_b = missing;
      best_node_b = r;
    }
  }
  int best_node = best_node_a >= 0 ? best_node_a : best_node_b;
  if (best_node < 0) return false;
  // The GFA is unchanged since `closure` was computed.
  std::vector<int> succs = Without(closure.succ[best_node], best_node);
  for (int p : Without(closure.pred[best_node], best_node)) {
    for (int s : succs) {
      if (!gfa->HasEdge(p, s)) gfa->AddEdge(p, s, 1);
    }
  }
  return true;
}

void FullMergeFallback(Gfa* gfa) {
  std::vector<int> live = gfa->LiveNodes();
  if (live.empty()) return;
  std::set<int> target_in(live.begin(), live.end());
  std::set<int> target_out(live.begin(), live.end());
  for (int w : live) {
    for (int p : gfa->In(w)) target_in.insert(p);
    for (int s : gfa->Out(w)) target_out.insert(s);
  }
  target_in.erase(gfa->sink());
  target_out.erase(gfa->source());
  for (int w : live) {
    for (int p : target_in) {
      if (!gfa->HasEdge(p, w)) gfa->AddEdge(p, w, 1);
    }
    for (int s : target_out) {
      if (!gfa->HasEdge(w, s)) gfa->AddEdge(w, s, 1);
    }
  }
}

}  // namespace condtd
