#include "gfa/gfa.h"

#include <algorithm>

#include "regex/properties.h"

namespace condtd {

Gfa::Gfa() {
  // Node 0 = source, node 1 = sink.
  labels_.resize(2);
  alive_.assign(2, true);
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
  for (int q : soa.Initials()) {
    gfa.AddEdge(gfa.source(), node_of[q], soa.InitialSupport(q));
  }
  if (soa.accepts_empty()) {
    // The empty word appears as a direct source→sink edge; the optional
    // rule consumes it when the target SORE is nullable.
    gfa.AddEdge(gfa.source(), gfa.sink(),
                std::max(soa.empty_support(), 1));
  }
  for (int q : soa.Finals()) {
    gfa.AddEdge(node_of[q], gfa.sink(), soa.FinalSupport(q));
  }
  for (int q = 0; q < soa.NumStates(); ++q) {
    for (int to : soa.Successors(q)) {
      gfa.AddEdge(node_of[q], node_of[to], soa.EdgeSupport(q, to));
    }
  }
  return gfa;
}

int Gfa::AddNode(ReRef label) {
  int id = static_cast<int>(labels_.size());
  labels_.push_back(std::move(label));
  alive_.push_back(true);
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void Gfa::RemoveNode(int v) {
  for (int to : std::vector<int>(out_[v].begin(), out_[v].end())) {
    RemoveEdge(v, to);
  }
  for (int from : std::vector<int>(in_[v].begin(), in_[v].end())) {
    RemoveEdge(from, v);
  }
  alive_[v] = false;
  labels_[v] = nullptr;
}

void Gfa::AddEdge(int u, int v, int support) {
  out_[u].insert(v);
  in_[v].insert(u);
  support_[{u, v}] += support;
}

void Gfa::RemoveEdge(int u, int v) {
  out_[u].erase(v);
  in_[v].erase(u);
  support_.erase({u, v});
}

bool Gfa::HasEdge(int u, int v) const { return out_[u].count(v) > 0; }

int Gfa::EdgeSupport(int u, int v) const {
  auto it = support_.find({u, v});
  return it == support_.end() ? 0 : it->second;
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
  return std::vector<int>(out_[v].begin(), out_[v].end());
}

std::vector<int> Gfa::In(int v) const {
  return std::vector<int>(in_[v].begin(), in_[v].end());
}

bool Gfa::IsFinal() const {
  std::vector<int> live = LiveNodes();
  if (live.size() != 1) return false;
  int r = live[0];
  return out_[source()].size() == 1 && HasEdge(source(), r) &&
         out_[r].size() == 1 && HasEdge(r, sink()) && in_[r].size() == 1;
}

ReRef Gfa::FinalExpression() const { return labels_[LiveNodes()[0]]; }

bool Gfa::NodeNullable(int v) const {
  if (labels_[v] == nullptr) return false;
  return Nullable(labels_[v]);
}

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

Gfa::Closure Gfa::ComputeClosure() const {
  Closure closure;
  int n = static_cast<int>(labels_.size());
  closure.pred.resize(n);
  closure.succ.resize(n);
  std::vector<char> nullable(n);
  for (int v = 0; v < n; ++v) nullable[v] = NodeNullable(v);

  // visited[w] == u marks w as already in succ[u]; one buffer serves
  // every row.
  std::vector<int> visited(n, -1);
  for (int u = 0; u < n; ++u) {
    if (!alive_[u]) continue;
    // Rule (ii) incl. direct edges: BFS that only continues through
    // nullable intermediate nodes. The row doubles as the BFS queue.
    std::vector<int>& row = closure.succ[u];
    auto visit = [&](int w) {
      if (visited[w] != u) {
        visited[w] = u;
        row.push_back(w);
      }
    };
    for (int to : out_[u]) visit(to);
    for (size_t i = 0; i < row.size(); ++i) {
      int w = row[i];
      if (!nullable[w]) continue;
      for (int to : out_[w]) visit(to);
    }
    // Rule (i): virtual self-loop for s+ / (s+)? labels.
    if (HasVirtualSelfLoop(u)) visit(u);
    std::sort(row.begin(), row.end());
  }
  // Transposing in ascending u leaves every pred row sorted.
  for (int u = 0; u < n; ++u) {
    for (int v : closure.succ[u]) closure.pred[v].push_back(u);
  }
  return closure;
}

bool Gfa::SameAs(const Gfa& other) const {
  if (alive_ != other.alive_ || out_ != other.out_ ||
      support_ != other.support_) {
    return false;
  }
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
      text += "[" + std::to_string(v) + "] " +
              condtd::ToString(labels_[v], alphabet);
    }
    text += " ->";
    for (int to : out_[v]) {
      text += ' ';
      if (to == sink()) {
        text += "snk";
      } else {
        text += std::to_string(to);
      }
    }
    text += '\n';
  }
  text += "}";
  return text;
}

}  // namespace condtd
