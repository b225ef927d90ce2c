#include "idtd/idtd.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "automaton/two_t_inf.h"
#include "gfa/rewrite.h"
#include "idtd/repair.h"
#include "obs/metrics.h"
#include "regex/normalize.h"

namespace condtd {

namespace {

/// True when every live node is reachable from the source and co-reaches
/// the sink over real edges.
bool FullyConnected(const Gfa& gfa) {
  std::vector<int> live = gfa.LiveNodes();
  std::set<int> reach;
  std::queue<int> q;
  q.push(gfa.source());
  reach.insert(gfa.source());
  while (!q.empty()) {
    int u = q.front();
    q.pop();
    for (const Gfa::OutEdge& edge : gfa.OutEdges(u)) {
      if (reach.insert(edge.to).second) q.push(edge.to);
    }
  }
  std::set<int> coreach;
  q.push(gfa.sink());
  coreach.insert(gfa.sink());
  while (!q.empty()) {
    int u = q.front();
    q.pop();
    for (int v : gfa.In(u)) {
      if (coreach.insert(v).second) q.push(v);
    }
  }
  for (int v : live) {
    if (reach.count(v) == 0 || coreach.count(v) == 0) return false;
  }
  return true;
}

/// Section 9 noise handling: drops the lowest-support real edge below the
/// threshold whose removal keeps the automaton connected.
bool TryRemoveNoisyEdge(Gfa* gfa, int threshold) {
  struct Candidate {
    int64_t support;
    int from;
    int to;
  };
  std::vector<Candidate> candidates;
  std::vector<int> nodes = gfa->LiveNodes();
  nodes.push_back(gfa->source());
  for (int u : nodes) {
    for (const Gfa::OutEdge& edge : gfa->OutEdges(u)) {
      if (edge.support < threshold) {
        candidates.push_back({edge.support, u, edge.to});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.support != b.support) return a.support < b.support;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  for (const Candidate& c : candidates) {
    gfa->RemoveEdge(c.from, c.to);
    if (FullyConnected(*gfa)) return true;
    gfa->AddEdge(c.from, c.to, c.support);  // undo
  }
  return false;
}

}  // namespace

Result<ReRef> IdtdFromSoa(const Soa& input, const IdtdOptions& options) {
  Soa pruned;
  if (options.noise_symbol_threshold > 0) {
    pruned = PruneSoaByStateSupport(input, options.noise_symbol_threshold);
  }
  const Soa& soa = options.noise_symbol_threshold > 0 ? pruned : input;
  if (soa.NumStates() == 0) {
    return Status::FailedPrecondition(
        "iDTD: the SOA has no states (language is empty or {ε})");
  }
  Gfa gfa = Gfa::FromSoa(soa);
  RewriteFixpoint(&gfa);

  int k = options.initial_k;
  const int budget = 4 * soa.NumStates() * soa.NumStates() + 64;
  int steps = 0;
  obs::StageSpan repair_span(obs::Stage::kRepair);
  while (!gfa.IsFinal()) {
    if (++steps > budget) {
      if (!options.enable_full_merge_fallback) {
        return Status::NoEquivalentSore(
            "iDTD (restricted): repair budget exhausted before reaching a "
            "final form");
      }
      obs::CounterAdd(obs::Counter::kRepairFallbacks, 1);
      FullMergeFallback(&gfa);
      RewriteFixpoint(&gfa);
      break;
    }
    const Gfa before = gfa;
    if (options.noise_edge_threshold > 0 &&
        TryRemoveNoisyEdge(&gfa, options.noise_edge_threshold)) {
      obs::CounterAdd(obs::Counter::kNoisyEdgesDropped, 1);
    } else if (options.enable_disjunction_repair &&
               EnableDisjunction(&gfa, k)) {
      obs::CounterAdd(obs::Counter::kRepairDisjunctions, 1);
    } else if (options.enable_optional_repair && EnableOptional(&gfa, k)) {
      obs::CounterAdd(obs::Counter::kRepairOptionals, 1);
    } else if (k < options.max_k) {
      ++k;
      continue;
    } else {
      if (!options.enable_full_merge_fallback) {
        return Status::NoEquivalentSore(
            "iDTD (restricted): no repair rule applies at k <= " +
            std::to_string(options.max_k));
      }
      obs::CounterAdd(obs::Counter::kRepairFallbacks, 1);
      FullMergeFallback(&gfa);
      RewriteFixpoint(&gfa);
      break;
    }
    RewriteFixpoint(&gfa);
    // A round is a function of (gfa, k). One that leaves both as it
    // found them (k only changes above) repeats unchanged until the
    // budget runs out, so skip to that exit: the next iteration takes it
    // on this same GFA, as the budgeted loop would.
    if (gfa.SameAs(before)) steps = budget;
  }
  if (!gfa.IsFinal()) {
    return Status::Internal(
        "iDTD: automaton did not reach the final form even after the "
        "full-merge fallback");
  }
  return Normalize(gfa.FinalExpression());
}

Result<ReRef> IdtdInfer(const std::vector<Word>& sample,
                        const IdtdOptions& options) {
  return IdtdFromSoa(Infer2T(sample), options);
}

}  // namespace condtd
