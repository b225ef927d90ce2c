#include "gfa/gfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "automaton/two_t_inf.h"
#include "base/rng.h"
#include "gfa/rewrite.h"
#include "idtd/repair.h"
#include "regex/normalize.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;
using testing_util::WordsFromStrings;

// --- Graph plumbing ----------------------------------------------------------

TEST(Gfa, FromSoaShapesSourceAndSink) {
  Alphabet alphabet;
  Soa soa = Infer2T(WordsFromStrings({"ab", "b"}, &alphabet));
  Gfa gfa = Gfa::FromSoa(soa);
  EXPECT_EQ(gfa.NumLiveNodes(), 2);
  // src -> a, src -> b (both initial), b -> snk, a -> b.
  EXPECT_EQ(gfa.OutDegree(gfa.source()), 2);
  EXPECT_EQ(gfa.InDegree(gfa.sink()), 1);
  EXPECT_FALSE(gfa.IsFinal());
}

TEST(Gfa, EmptyWordBecomesSourceSinkEdge) {
  Alphabet alphabet;
  std::vector<Word> sample = WordsFromStrings({"a"}, &alphabet);
  sample.push_back(Word{});
  Gfa gfa = Gfa::FromSoa(Infer2T(sample));
  EXPECT_TRUE(gfa.HasEdge(gfa.source(), gfa.sink()));
}

TEST(Gfa, RemoveNodeDetachesEdges) {
  Alphabet alphabet;
  Soa soa = Infer2T(WordsFromStrings({"ab"}, &alphabet));
  Gfa gfa = Gfa::FromSoa(soa);
  std::vector<int> live = gfa.LiveNodes();
  gfa.RemoveNode(live[0]);
  EXPECT_EQ(gfa.NumLiveNodes(), 1);
  for (int v : gfa.LiveNodes()) {
    for (int to : gfa.Out(v)) {
      EXPECT_TRUE(gfa.IsAlive(to) || to == gfa.sink());
    }
  }
}

TEST(Gfa, EdgeSupportAccumulates) {
  Gfa gfa;
  int n = gfa.AddNode(Re::Sym(0));
  gfa.AddEdge(gfa.source(), n, 3);
  gfa.AddEdge(gfa.source(), n, 4);
  EXPECT_EQ(gfa.EdgeSupport(gfa.source(), n), 7);
  gfa.RemoveEdge(gfa.source(), n);
  EXPECT_EQ(gfa.EdgeSupport(gfa.source(), n), 0);
  // Two in-range SOA supports merged onto one edge leave the 32-bit
  // range; the sum is kept exactly.
  gfa.AddEdge(n, gfa.sink(), INT32_MAX);
  gfa.AddEdge(n, gfa.sink(), INT32_MAX);
  EXPECT_EQ(gfa.EdgeSupport(n, gfa.sink()), int64_t{2} * INT32_MAX);
}

// --- ε-closure ----------------------------------------------------------------

TEST(GfaClosure, VirtualSelfLoopForPlusLabels) {
  Gfa gfa;
  Alphabet alphabet;
  int plus = gfa.AddNode(ParseChars("a+", &alphabet));
  int opt_plus = gfa.AddNode(ParseChars("(b+)?", &alphabet));
  int star = gfa.AddNode(ParseChars("c*", &alphabet));
  int opt = gfa.AddNode(ParseChars("d?", &alphabet));
  int plain = gfa.AddNode(ParseChars("e", &alphabet));
  EXPECT_TRUE(gfa.HasVirtualSelfLoop(plus));
  EXPECT_TRUE(gfa.HasVirtualSelfLoop(opt_plus));
  EXPECT_TRUE(gfa.HasVirtualSelfLoop(star));
  EXPECT_FALSE(gfa.HasVirtualSelfLoop(opt));
  EXPECT_FALSE(gfa.HasVirtualSelfLoop(plain));
}

TEST(GfaClosure, PathsThroughNullableIntermediates) {
  // src -> x -> y? -> z -> snk: the closure must contain (x, z) because
  // y? derives ε, but not (src, z) (x is not nullable).
  Gfa gfa;
  Alphabet alphabet;
  int x = gfa.AddNode(ParseChars("x", &alphabet));
  int y = gfa.AddNode(ParseChars("y?", &alphabet));
  int z = gfa.AddNode(ParseChars("z", &alphabet));
  gfa.AddEdge(gfa.source(), x);
  gfa.AddEdge(x, y);
  gfa.AddEdge(y, z);
  gfa.AddEdge(z, gfa.sink());
  const Gfa::Closure& closure = gfa.closure();
  EXPECT_TRUE(closure.Connects(x, z));
  EXPECT_TRUE(std::binary_search(closure.pred[z].begin(),
                                 closure.pred[z].end(), x));
  EXPECT_FALSE(closure.Connects(gfa.source(), z));
  // Direct edges are always present.
  EXPECT_TRUE(closure.Connects(x, y));
}

TEST(GfaClosure, ChainsOfNullables) {
  Gfa gfa;
  Alphabet alphabet;
  int a = gfa.AddNode(ParseChars("a?", &alphabet));
  int b = gfa.AddNode(ParseChars("b?", &alphabet));
  int c = gfa.AddNode(ParseChars("c", &alphabet));
  gfa.AddEdge(gfa.source(), a);
  gfa.AddEdge(a, b);
  gfa.AddEdge(b, c);
  gfa.AddEdge(c, gfa.sink());
  const Gfa::Closure& closure = gfa.closure();
  // src reaches c through two nullable hops.
  EXPECT_TRUE(closure.Connects(gfa.source(), c));
}

/// E* row of `u` by depth-first search over Out(), continuing only
/// through nullable nodes, plus rule (i)'s virtual self-loop.
std::vector<int> NaiveClosureRow(const Gfa& gfa, int u) {
  std::set<int> reached;
  std::vector<int> stack = gfa.Out(u);
  while (!stack.empty()) {
    int w = stack.back();
    stack.pop_back();
    if (!reached.insert(w).second || !gfa.NodeNullable(w)) continue;
    for (int to : gfa.Out(w)) stack.push_back(to);
  }
  if (gfa.HasVirtualSelfLoop(u)) reached.insert(u);
  return std::vector<int>(reached.begin(), reached.end());
}

/// Compares every closure row of `gfa`, whose node ids are 0..ids-1,
/// with the naive one.
void ExpectClosureMatchesNaive(Gfa* gfa, int ids) {
  const Gfa::Closure& closure = gfa->closure();
  ASSERT_EQ(static_cast<int>(closure.succ.size()), ids);
  ASSERT_EQ(static_cast<int>(closure.pred.size()), ids);
  std::vector<std::vector<int>> naive_pred(ids);
  for (int u = 0; u < ids; ++u) {
    std::vector<int> row;
    if (gfa->IsAlive(u)) row = NaiveClosureRow(*gfa, u);
    EXPECT_EQ(closure.succ[u], row) << "succ of " << u;
    for (int v : row) naive_pred[v].push_back(u);
  }
  for (int v = 0; v < ids; ++v) {
    EXPECT_EQ(closure.pred[v], naive_pred[v]) << "pred of " << v;
  }
  // Strictly ascending rows: sorted, no duplicates.
  for (const auto* lists : {&closure.succ, &closure.pred}) {
    for (const std::vector<int>& row : *lists) {
      EXPECT_EQ(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<int>()),
                row.end());
    }
  }
}

/// A plain, nullable, s+, (s+)? or nullable-concatenation label over
/// `symbol` (and `symbol` + 1000).
ReRef RandomLabel(Symbol symbol, Rng* rng) {
  ReRef sym = Re::Sym(symbol);
  switch (rng->NextBelow(5)) {
    case 0:
      return sym;
    case 1:
      return Re::Opt(sym);
    case 2:
      return Re::Plus(sym);
    case 3:
      return Re::Opt(Re::Plus(sym));
    default:
      return Re::Concat({Re::Opt(sym), Re::Star(Re::Sym(symbol + 1000))});
  }
}

TEST(GfaClosure, MatchesNaiveReachabilityOnRandomGfas) {
  Rng rng(20061018);
  for (int trial = 0; trial < 12; ++trial) {
    // More than 128 node ids, some dead, with plain, nullable, s+ and
    // (s+)? labels.
    Gfa gfa;
    const int internal = 130 + static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < internal; ++i) {
      gfa.AddNode(RandomLabel(static_cast<Symbol>(i), &rng));
    }
    int ids = internal + 2;
    for (int u = 0; u < ids; ++u) {
      if (u == gfa.sink()) continue;
      int degree = 1 + static_cast<int>(rng.NextBelow(3));
      for (int e = 0; e < degree; ++e) {
        // Any node but the source may be a target, u itself included.
        gfa.AddEdge(u, 1 + static_cast<int>(rng.NextBelow(ids - 1)));
      }
    }
    for (int v : gfa.LiveNodes()) {
      if (rng.Bernoulli(0.15)) gfa.RemoveNode(v);
    }
    ExpectClosureMatchesNaive(&gfa, ids);

    // Mutate and re-read the cached closure after every step: a change
    // that fails to invalidate the cache leaves a stale row behind.
    Symbol next_symbol = static_cast<Symbol>(internal);
    for (int step = 0; step < 40; ++step) {
      std::vector<int> live = gfa.LiveNodes();
      std::vector<int> sources = live;
      sources.push_back(gfa.source());
      std::vector<int> targets = live;
      targets.push_back(gfa.sink());
      const int u = sources[rng.NextBelow(sources.size())];
      const int v = targets[rng.NextBelow(targets.size())];
      switch (rng.NextBelow(6)) {
        case 0: {
          int w = gfa.AddNode(RandomLabel(next_symbol++, &rng));
          ++ids;
          gfa.AddEdge(u, w);
          gfa.AddEdge(w, v);
          break;
        }
        case 1:
          if (gfa.OutDegree(u) > 0) {
            // Onto an existing edge: the support grows, E* stays.
            const Gfa::OutEdge edge = gfa.OutEdges(u)[0];
            gfa.AddEdge(u, edge.to, 2);
            EXPECT_EQ(gfa.EdgeSupport(u, edge.to), edge.support + 2);
          }
          break;
        case 2:
          gfa.AddEdge(u, v);
          break;
        case 3:
          if (gfa.OutDegree(u) > 0) {
            const std::vector<int> out = gfa.Out(u);
            gfa.RemoveEdge(u, out[rng.NextBelow(out.size())]);
          }
          break;
        case 4:
          if (live.size() > 1) {
            gfa.RemoveNode(live[rng.NextBelow(live.size())]);
          }
          break;
        default:
          if (!live.empty()) {
            // To and from nullable and s+ labels.
            int w = live[rng.NextBelow(live.size())];
            gfa.SetLabel(w, RandomLabel(next_symbol++, &rng));
          }
          break;
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      ExpectClosureMatchesNaive(&gfa, ids);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- Repair rules in isolation --------------------------------------------------

TEST(Repair, EnableOptionalAddsSkipEdges) {
  // a -> b -> c plus partial skip evidence a -> c missing… build a case
  // with two predecessors where one skip edge exists: p1 -> r -> s and
  // p2 -> r with p1 -> s present (case (a)); the repair must add p2 -> s.
  Gfa gfa;
  Alphabet alphabet;
  int p1 = gfa.AddNode(ParseChars("a", &alphabet));
  int p2 = gfa.AddNode(ParseChars("b", &alphabet));
  int r = gfa.AddNode(ParseChars("c", &alphabet));
  int s = gfa.AddNode(ParseChars("d", &alphabet));
  gfa.AddEdge(gfa.source(), p1);
  gfa.AddEdge(gfa.source(), p2);
  gfa.AddEdge(p1, r);
  gfa.AddEdge(p2, r);
  gfa.AddEdge(r, s);
  gfa.AddEdge(p1, s);  // the partial evidence
  gfa.AddEdge(s, gfa.sink());
  ASSERT_TRUE(EnableOptional(&gfa, /*k=*/2));
  EXPECT_TRUE(gfa.HasEdge(p2, s));
  // Now the optional rewrite rule fires on r and removes the skips.
  ASSERT_TRUE(ApplyOptionalRule(&gfa));
  EXPECT_FALSE(gfa.HasEdge(p1, s));
  EXPECT_FALSE(gfa.HasEdge(p2, s));
  EXPECT_EQ(ToString(gfa.Label(r), alphabet), "c?");
}

TEST(Repair, EnableDisjunctionPrefersMutualPairs) {
  // A mutual pair (u <-> v) and a merely similar pair must resolve
  // toward the mutual one (the Figure 2 walkthrough's choice).
  Alphabet alphabet;
  std::vector<Word> words =
      WordsFromStrings({"bacacdacde", "cbacdbacde"}, &alphabet);
  Gfa gfa = Gfa::FromSoa(Infer2T(words));
  ASSERT_TRUE(EnableDisjunction(&gfa, 2));
  // After the repair both a and c have identical in/out neighborhoods.
  int a = -1;
  int c = -1;
  for (int v : gfa.LiveNodes()) {
    std::string label = ToString(gfa.Label(v), alphabet);
    if (label == "a") a = v;
    if (label == "c") c = v;
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(c, 0);
  EXPECT_EQ(gfa.In(a).size(), gfa.In(c).size());
  EXPECT_EQ(gfa.Out(a).size(), gfa.Out(c).size());
}

TEST(Repair, FullMergeFallbackReachesFinalForm) {
  // Disconnected neighborhoods where no repair precondition holds.
  Gfa gfa;
  Alphabet alphabet;
  int a = gfa.AddNode(ParseChars("a", &alphabet));
  int b = gfa.AddNode(ParseChars("b", &alphabet));
  int c = gfa.AddNode(ParseChars("c", &alphabet));
  gfa.AddEdge(gfa.source(), a);
  gfa.AddEdge(a, b);
  gfa.AddEdge(b, c);
  gfa.AddEdge(c, gfa.sink());
  gfa.AddEdge(a, gfa.sink());
  FullMergeFallback(&gfa);
  RewriteFixpoint(&gfa);
  EXPECT_TRUE(gfa.IsFinal());
}

// --- Redundant skip edge rule ----------------------------------------------------

TEST(RedundantSkipEdge, RemovesEpsilonBypassedEdges) {
  Gfa gfa;
  Alphabet alphabet;
  int x = gfa.AddNode(ParseChars("(a+)?", &alphabet));
  gfa.AddEdge(gfa.source(), x);
  gfa.AddEdge(x, gfa.sink());
  gfa.AddEdge(gfa.source(), gfa.sink());  // ε word, bypassed via x
  ASSERT_TRUE(ApplyRedundantSkipEdgeRule(&gfa));
  EXPECT_FALSE(gfa.HasEdge(gfa.source(), gfa.sink()));
  EXPECT_TRUE(gfa.IsFinal());
}

TEST(RedundantSkipEdge, KeepsNecessaryEdges) {
  Gfa gfa;
  Alphabet alphabet;
  int x = gfa.AddNode(ParseChars("a", &alphabet));  // not nullable
  gfa.AddEdge(gfa.source(), x);
  gfa.AddEdge(x, gfa.sink());
  gfa.AddEdge(gfa.source(), gfa.sink());
  EXPECT_FALSE(ApplyRedundantSkipEdgeRule(&gfa));
}

// --- Rewrite counts -----------------------------------------------------------

TEST(RewriteFixpointCount, LinearInAutomatonSize) {
  // Theorem 1: at most O(n) rewrite steps since every step adds an
  // operator and operators are never removed.
  Alphabet alphabet;
  ReRef target = ParseChars("a(b|c)*d+(e|f)?", &alphabet);
  Gfa gfa = Gfa::FromSoa(SoaFromRegex(target));
  int steps = RewriteFixpoint(&gfa);
  EXPECT_TRUE(gfa.IsFinal());
  EXPECT_LE(steps, 4 * 6);  // generous linear bound for 6 symbols
}

}  // namespace
}  // namespace condtd
