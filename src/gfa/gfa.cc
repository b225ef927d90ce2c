#include "gfa/gfa.h"

#include <algorithm>

#include "regex/properties.h"

namespace condtd {

namespace {

/// Position of `to` in the sorted out-row, or where it would go.
template <typename Row>
auto FindOut(Row& row, int to) {
  return std::lower_bound(
      row.begin(), row.end(), to,
      [](const Gfa::OutEdge& edge, int node) { return edge.to < node; });
}

/// Removes `x` from the sorted row, if present.
void EraseSorted(std::vector<int>& row, int x) {
  auto it = std::lower_bound(row.begin(), row.end(), x);
  if (it != row.end() && *it == x) row.erase(it);
}

}  // namespace

Gfa::Gfa() {
  // Node 0 = source, node 1 = sink.
  labels_.resize(2);
  alive_.assign(2, true);
  nullable_.assign(2, false);
  out_.resize(2);
  in_.resize(2);
}

Gfa Gfa::FromSoa(const Soa& soa) {
  Gfa gfa;
  // Create nodes in ascending symbol order, not SOA state-insertion
  // order: node ids drive the rewrite/repair rule application order, so
  // this makes every downstream learner invariant to the order in which
  // words were folded into the SOA — the property the sharded ingestion
  // merge relies on for byte-identical output.
  std::vector<int> by_symbol(soa.NumStates());
  for (int q = 0; q < soa.NumStates(); ++q) by_symbol[q] = q;
  std::sort(by_symbol.begin(), by_symbol.end(), [&](int a, int b) {
    return soa.LabelOf(a) < soa.LabelOf(b);
  });
  std::vector<int> node_of(soa.NumStates());
  for (int q : by_symbol) {
    node_of[q] = gfa.AddNode(Re::Sym(soa.LabelOf(q)));
  }
  // Every edge is distinct, so the rows are filled directly: each
  // out-row sorted once, the in-rows by transposing in ascending order.
  std::vector<OutEdge>& from_source = gfa.out_[gfa.source()];
  for (int q : soa.Initials()) {
    from_source.push_back({node_of[q], soa.InitialSupport(q)});
  }
  if (soa.accepts_empty()) {
    // The empty word appears as a direct source→sink edge; the optional
    // rule consumes it when the target SORE is nullable.
    from_source.push_back({gfa.sink(), std::max(soa.empty_support(), 1)});
  }
  for (int q = 0; q < soa.NumStates(); ++q) {
    std::vector<OutEdge>& row = gfa.out_[node_of[q]];
    for (int to : soa.Successors(q)) {
      row.push_back({node_of[to], soa.EdgeSupport(q, to)});
    }
    if (soa.IsFinal(q)) row.push_back({gfa.sink(), soa.FinalSupport(q)});
  }
  for (int u = 0; u < static_cast<int>(gfa.out_.size()); ++u) {
    std::vector<OutEdge>& row = gfa.out_[u];
    std::sort(row.begin(), row.end(),
              [](const OutEdge& a, const OutEdge& b) { return a.to < b.to; });
    for (const OutEdge& edge : row) gfa.in_[edge.to].push_back(u);
  }
  return gfa;
}

int Gfa::AddNode(ReRef label) {
  int id = static_cast<int>(labels_.size());
  nullable_.push_back(Nullable(label));
  labels_.push_back(std::move(label));
  alive_.push_back(true);
  out_.emplace_back();
  in_.emplace_back();
  closure_valid_ = false;
  return id;
}

void Gfa::RemoveNode(int v) {
  for (const OutEdge& edge : out_[v]) {
    if (edge.to != v) EraseSorted(in_[edge.to], v);
  }
  for (int from : in_[v]) {
    if (from == v) continue;
    std::vector<OutEdge>& row = out_[from];
    row.erase(FindOut(row, v));
  }
  out_[v].clear();
  in_[v].clear();
  alive_[v] = false;
  labels_[v] = nullptr;
  nullable_[v] = false;
  closure_valid_ = false;
}

void Gfa::AddEdge(int u, int v, int64_t support) {
  std::vector<OutEdge>& row = out_[u];
  auto it = FindOut(row, v);
  if (it != row.end() && it->to == v) {
    it->support += support;  // same edge set, same closure
    return;
  }
  row.insert(it, OutEdge{v, support});
  std::vector<int>& in = in_[v];
  in.insert(std::lower_bound(in.begin(), in.end(), u), u);
  closure_valid_ = false;
}

void Gfa::RemoveEdge(int u, int v) {
  std::vector<OutEdge>& row = out_[u];
  auto it = FindOut(row, v);
  if (it == row.end() || it->to != v) return;
  row.erase(it);
  EraseSorted(in_[v], u);
  closure_valid_ = false;
}

bool Gfa::HasEdge(int u, int v) const {
  auto it = FindOut(out_[u], v);
  return it != out_[u].end() && it->to == v;
}

int64_t Gfa::EdgeSupport(int u, int v) const {
  auto it = FindOut(out_[u], v);
  return it != out_[u].end() && it->to == v ? it->support : 0;
}

void Gfa::SetLabel(int v, ReRef label) {
  nullable_[v] = Nullable(label);
  labels_[v] = std::move(label);
  closure_valid_ = false;
}

std::vector<int> Gfa::LiveNodes() const {
  std::vector<int> nodes;
  for (size_t v = 2; v < alive_.size(); ++v) {
    if (alive_[v]) nodes.push_back(static_cast<int>(v));
  }
  return nodes;
}

int Gfa::NumLiveNodes() const { return static_cast<int>(LiveNodes().size()); }

int Gfa::NumEdges() const {
  int total = 0;
  for (size_t v = 0; v < out_.size(); ++v) {
    if (alive_[v]) total += static_cast<int>(out_[v].size());
  }
  return total;
}

std::vector<int> Gfa::Out(int v) const {
  std::vector<int> targets;
  targets.reserve(out_[v].size());
  for (const OutEdge& edge : out_[v]) targets.push_back(edge.to);
  return targets;
}

bool Gfa::IsFinal() const {
  std::vector<int> live = LiveNodes();
  if (live.size() != 1) return false;
  int r = live[0];
  return out_[source()].size() == 1 && HasEdge(source(), r) &&
         out_[r].size() == 1 && HasEdge(r, sink()) && in_[r].size() == 1;
}

ReRef Gfa::FinalExpression() const { return labels_[LiveNodes()[0]]; }

bool Gfa::HasVirtualSelfLoop(int v) const {
  const ReRef& label = labels_[v];
  if (label == nullptr) return false;
  if (label->kind() == ReKind::kPlus || label->kind() == ReKind::kStar) {
    return true;
  }
  return label->kind() == ReKind::kOpt &&
         (label->child()->kind() == ReKind::kPlus ||
          label->child()->kind() == ReKind::kStar);
}

const Gfa::Closure& Gfa::closure() {
  if (!closure_valid_) RebuildClosure();
  return closure_;
}

void Gfa::RebuildClosure() {
  const int n = static_cast<int>(labels_.size());
  // Rows keep their capacity from the last build; only nodes added since
  // then get new ones.
  closure_.succ.resize(n);
  closure_.pred.resize(n);
  for (int v = 0; v < n; ++v) {
    closure_.succ[v].clear();
    closure_.pred[v].clear();
  }
  visited_.assign(n, -1);
  for (int u = 0; u < n; ++u) {
    if (!alive_[u]) continue;
    // Rule (ii) incl. direct edges: BFS that only continues through
    // nullable intermediate nodes. The row doubles as the BFS queue.
    std::vector<int>& row = closure_.succ[u];
    for (const OutEdge& edge : out_[u]) {
      visited_[edge.to] = u;
      row.push_back(edge.to);
    }
    const size_t direct = row.size();
    for (size_t i = 0; i < row.size(); ++i) {
      const int w = row[i];
      if (!nullable_[w]) continue;
      for (const OutEdge& edge : out_[w]) {
        if (visited_[edge.to] != u) {
          visited_[edge.to] = u;
          row.push_back(edge.to);
        }
      }
    }
    // The direct edges arrive sorted; only a search that crossed a
    // nullable node appends out of order.
    if (row.size() > direct) std::sort(row.begin(), row.end());
    // Rule (i): virtual self-loop for s+ / (s+)? labels.
    if (visited_[u] != u && HasVirtualSelfLoop(u)) {
      row.insert(std::lower_bound(row.begin(), row.end(), u), u);
    }
  }
  // Transposing in ascending u leaves every pred row sorted.
  for (int u = 0; u < n; ++u) {
    for (int v : closure_.succ[u]) closure_.pred[v].push_back(u);
  }
  closure_valid_ = true;
}

bool Gfa::SameAs(const Gfa& other) const {
  if (alive_ != other.alive_ || out_ != other.out_) return false;
  for (size_t v = 0; v < labels_.size(); ++v) {
    const ReRef& a = labels_[v];
    const ReRef& b = other.labels_[v];
    if (a == nullptr || b == nullptr) {
      if (a != b) return false;
    } else if (!StructurallyEqual(a, b, /*commutative_disj=*/false)) {
      return false;
    }
  }
  return true;
}

std::string Gfa::ToString(const Alphabet& alphabet) const {
  std::string text = "GFA{\n";
  for (size_t v = 0; v < labels_.size(); ++v) {
    if (!alive_[v]) continue;
    text += "  ";
    if (static_cast<int>(v) == source()) {
      text += "src";
    } else if (static_cast<int>(v) == sink()) {
      text += "snk";
    } else {
      text += '[';
      text += std::to_string(v);
      text += "] ";
      text += condtd::ToString(labels_[v], alphabet);
    }
    text += " ->";
    for (const OutEdge& edge : out_[v]) {
      text += ' ';
      if (edge.to == sink()) {
        text += "snk";
      } else {
        text += std::to_string(edge.to);
      }
    }
    text += '\n';
  }
  text += "}";
  return text;
}

}  // namespace condtd
