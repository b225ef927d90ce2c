#include "gfa/rewrite.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "automaton/two_t_inf.h"
#include "obs/metrics.h"
#include "regex/normalize.h"

namespace condtd {

bool ApplySelfLoopRule(Gfa* gfa) {
  bool changed = false;
  for (int v : gfa->LiveNodes()) {
    if (gfa->HasEdge(v, v)) {
      gfa->RemoveEdge(v, v);
      gfa->SetLabel(v, NormalizeNoStar(Re::Plus(gfa->Label(v))));
      changed = true;
    }
  }
  return changed;
}

namespace {

/// Merges the chain r1→...→rn (already validated) into one node.
void MergeChain(Gfa* gfa, const std::vector<int>& chain) {
  const int first = chain.front();
  const int last = chain.back();
  std::vector<ReRef> labels;
  labels.reserve(chain.size());
  for (int v : chain) labels.push_back(gfa->Label(v));
  const bool wrap = gfa->HasEdge(last, first);
  const int64_t wrap_support = gfa->EdgeSupport(last, first);

  int merged = gfa->AddNode(Re::Concat(std::move(labels)));
  for (int from : gfa->In(first)) {
    if (from == last) continue;  // becomes the self edge
    gfa->AddEdge(from, merged, gfa->EdgeSupport(from, first));
  }
  for (const Gfa::OutEdge& edge : gfa->OutEdges(last)) {
    if (edge.to == first) continue;
    gfa->AddEdge(merged, edge.to, edge.support);
  }
  if (wrap) gfa->AddEdge(merged, merged, wrap_support);
  for (int v : chain) gfa->RemoveNode(v);
}

}  // namespace

bool ApplyConcatenationRule(Gfa* gfa) {
  // chainable(u) = v iff u's unique out-edge goes to v and v's unique
  // in-edge comes from u. Both maps are partial injections, so maximal
  // chains are disjoint simple paths (or one cycle, handled by cutting).
  std::map<int, int> next;
  std::map<int, int> prev;
  for (int u : gfa->LiveNodes()) {
    if (gfa->OutDegree(u) != 1) continue;
    int v = gfa->OutEdges(u)[0].to;
    if (v == gfa->sink() || v == u || !gfa->IsAlive(v)) continue;
    if (gfa->InDegree(v) != 1) continue;
    next[u] = v;
    prev[v] = u;
  }
  if (next.empty()) return false;

  std::vector<std::vector<int>> chains;
  std::set<int> used;
  for (const auto& [u, v] : next) {
    if (used.count(u) > 0) continue;
    // Walk back to the start of this chain, stopping on a cycle.
    int start = u;
    while (prev.count(start) > 0 && prev.at(start) != u &&
           used.count(prev.at(start)) == 0) {
      start = prev.at(start);
      if (start == u) break;  // pure cycle; cut at u
    }
    std::vector<int> chain = {start};
    used.insert(start);
    int cur = start;
    while (next.count(cur) > 0) {
      int nxt = next.at(cur);
      if (nxt == start || used.count(nxt) > 0) break;
      chain.push_back(nxt);
      used.insert(nxt);
      cur = nxt;
    }
    if (chain.size() >= 2) chains.push_back(std::move(chain));
  }
  if (chains.empty()) return false;
  for (const auto& chain : chains) MergeChain(gfa, chain);
  return true;
}

namespace {

/// Equality of two sorted closure rows after removing the candidate
/// pair {u, v} from both.
bool EqualExcluding(const std::vector<int>& a, const std::vector<int>& b,
                    int u, int v) {
  const int* ia = a.data();
  const int* ib = b.data();
  const int* const end_a = ia + a.size();
  const int* const end_b = ib + b.size();
  while (true) {
    while (ia != end_a && (*ia == u || *ia == v)) ++ia;
    while (ib != end_b && (*ib == u || *ib == v)) ++ib;
    if (ia == end_a || ib == end_b) return ia == end_a && ib == end_b;
    if (*ia++ != *ib++) return false;
  }
}

}  // namespace

bool ApplyDisjunctionRule(Gfa* gfa) {
  // Pairwise formulation of rule 1: two nodes merge when their closure
  // neighborhoods agree outside the pair itself. Whether the pair is
  // mutually connected (case ii: merged node gets a self edge) or
  // completely unconnected (case i) is decided from the closure; a
  // one-sided connection blocks the merge. Larger candidate sets are
  // reached by merging pairwise to a fixpoint.
  const Gfa::Closure& closure = gfa->closure();
  std::vector<int> live = gfa->LiveNodes();
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = i + 1; j < live.size(); ++j) {
      int u = live[i];
      int v = live[j];
      // Successors first: on a wide union the members' predecessor rows
      // agree for most of their length, their successor rows part early.
      if (!EqualExcluding(closure.succ[u], closure.succ[v], u, v)) continue;
      if (!EqualExcluding(closure.pred[u], closure.pred[v], u, v)) continue;
      bool uv = closure.Connects(u, v);
      bool vu = closure.Connects(v, u);
      bool uu = closure.Connects(u, u);
      bool vv = closure.Connects(v, v);
      bool mutually = uv && vu && uu && vv;  // case (ii), incl. self pairs
      if (!mutually && (uv || vu)) continue;  // one-sided: no rule applies

      int64_t internal_support = 0;
      int merged =
          gfa->AddNode(NormalizeNoStar(Re::Disj({gfa->Label(u),
                                                 gfa->Label(v)})));
      for (int w : {u, v}) {
        for (int from : gfa->In(w)) {
          if (from == u || from == v) {
            internal_support += gfa->EdgeSupport(from, w);
            continue;
          }
          gfa->AddEdge(from, merged, gfa->EdgeSupport(from, w));
        }
        for (const Gfa::OutEdge& edge : gfa->OutEdges(w)) {
          if (edge.to == u || edge.to == v) continue;  // counted above
          gfa->AddEdge(merged, edge.to, edge.support);
        }
      }
      if (mutually) {
        gfa->AddEdge(merged, merged, std::max<int64_t>(internal_support, 1));
      }
      gfa->RemoveNode(u);
      gfa->RemoveNode(v);
      return true;
    }
  }
  return false;
}

bool ApplyRedundantSkipEdgeRule(Gfa* gfa) {
  // Cleanup: a real edge (p, s) is redundant when a real path from p to
  // s exists whose intermediate nodes are all nullable — the path spells
  // every word the edge does (the intermediates can derive ε). Such
  // edges appear when merges produce nullable labels; without this rule
  // the ε edge source→sink can never be consumed once the last node's
  // label is already nullable.
  const Gfa::Closure& closure = gfa->closure();
  std::vector<int> nodes = gfa->LiveNodes();
  nodes.push_back(gfa->source());
  for (int p : nodes) {
    for (const Gfa::OutEdge& skip : gfa->OutEdges(p)) {
      const int s = skip.to;
      // Is s reachable from p through a nullable intermediate? The
      // closure records paths including direct edges, so probe the
      // two-step decomposition explicitly.
      for (const Gfa::OutEdge& step : gfa->OutEdges(p)) {
        const int w = step.to;
        if (w == s || w == p || !gfa->IsAlive(w) || !gfa->NodeNullable(w)) {
          continue;
        }
        if (closure.Connects(w, s)) {
          gfa->RemoveEdge(p, s);
          return true;
        }
      }
    }
  }
  return false;
}

bool ApplyOptionalRule(Gfa* gfa) {
  const Gfa::Closure& closure = gfa->closure();
  for (int r : gfa->LiveNodes()) {
    if (gfa->NodeNullable(r)) continue;  // r? would be superfluous
    const std::vector<int>& preds = closure.pred[r];
    const std::vector<int>& succs = closure.succ[r];
    if (preds.empty()) continue;
    bool applicable = true;
    bool has_external_pred = false;
    for (int p : preds) {
      if (p == r) continue;
      has_external_pred = true;
      // Succ(r) ⊆ Succ(p)?
      if (!std::includes(closure.succ[p].begin(), closure.succ[p].end(),
                         succs.begin(), succs.end())) {
        applicable = false;
        break;
      }
    }
    if (!applicable || !has_external_pred) continue;
    // The rule must delete at least one skip edge; otherwise wrapping in
    // `?` would strictly grow the language.
    bool any_removable = false;
    for (int p : preds) {
      if (p == r) continue;
      for (int s : succs) {
        if (s == r) continue;
        if (gfa->HasEdge(p, s)) any_removable = true;
      }
    }
    if (!any_removable) continue;

    gfa->SetLabel(r, NormalizeNoStar(Re::Opt(gfa->Label(r))));
    for (int p : preds) {
      if (p == r) continue;
      for (int s : succs) {
        if (s == r) continue;
        if (gfa->HasEdge(p, s)) gfa->RemoveEdge(p, s);
      }
    }
    return true;
  }
  return false;
}

int RewriteFixpoint(Gfa* gfa) {
  obs::StageSpan span(obs::Stage::kRewrite);
  int applications = 0;
  while (true) {
    if (ApplySelfLoopRule(gfa)) {
      ++applications;
      continue;
    }
    if (ApplyConcatenationRule(gfa)) {
      ++applications;
      continue;
    }
    if (ApplyDisjunctionRule(gfa)) {
      ++applications;
      continue;
    }
    if (ApplyOptionalRule(gfa)) {
      ++applications;
      continue;
    }
    // Lowest priority: drop edges made redundant by nullable bypass
    // paths (these appear once merges produce nullable labels and would
    // otherwise block the final form).
    if (ApplyRedundantSkipEdgeRule(gfa)) {
      ++applications;
      continue;
    }
    obs::CounterAdd(obs::Counter::kRewriteApplications, applications);
    return applications;
  }
}

Result<ReRef> RewriteSoaToSore(const Soa& soa) {
  if (soa.NumStates() == 0) {
    return Status::FailedPrecondition(
        "rewrite: the SOA has no states (language is empty or {ε})");
  }
  Gfa gfa = Gfa::FromSoa(soa);
  RewriteFixpoint(&gfa);
  if (!gfa.IsFinal()) {
    return Status::NoEquivalentSore(
        "rewrite: no SORE is equivalent to the given SOA (" +
        std::to_string(gfa.NumLiveNodes()) + " nodes remain)");
  }
  return Normalize(gfa.FinalExpression());
}

Result<ReRef> RewriteInfer(const std::vector<Word>& sample) {
  // The empty word travels with the SOA as a source→sink edge (see
  // Gfa::FromSoa), so a nullable target comes back as a nullable SORE.
  return RewriteSoaToSore(Infer2T(sample));
}

}  // namespace condtd
