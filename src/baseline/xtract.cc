#include "baseline/xtract.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "base/strings.h"
#include "regex/matcher.h"
#include "regex/properties.h"

namespace condtd {

namespace {

/// Sequence of RE items used while collapsing repeats.
using Items = std::vector<ReRef>;

Items WordToItems(const Word& word) {
  Items items;
  items.reserve(word.size());
  for (Symbol s : word) items.push_back(Re::Sym(s));
  return items;
}

/// Collapses maximal runs of structurally equal adjacent items into
/// item* (XTRACT introduces Kleene stars for repeats).
Items CollapseRuns(const Items& items) {
  Items out;
  for (size_t i = 0; i < items.size();) {
    size_t j = i;
    while (j < items.size() &&
           StructurallyEqual(items[i], items[j], false)) {
      ++j;
    }
    if (j - i >= 2) {
      out.push_back(Re::Star(items[i]));
    } else {
      out.push_back(items[i]);
    }
    i = j;
  }
  return out;
}

/// Collapses one adjacent tandem repeat w w (longest period first) into
/// (w)*; returns true if something changed.
bool CollapseOneTandem(Items* items) {
  for (size_t period = items->size() / 2; period >= 1; --period) {
    for (size_t start = 0; start + 2 * period <= items->size(); ++start) {
      bool repeat = true;
      for (size_t k = 0; k < period; ++k) {
        if (!StructurallyEqual((*items)[start + k],
                               (*items)[start + period + k], false)) {
          repeat = false;
          break;
        }
      }
      if (!repeat) continue;
      Items prefix(items->begin(), items->begin() + start);
      Items body(items->begin() + start, items->begin() + start + period);
      Items suffix(items->begin() + start + 2 * period, items->end());
      ReRef collapsed =
          Re::Star(body.size() == 1 ? body[0] : Re::Concat(body));
      prefix.push_back(collapsed);
      prefix.insert(prefix.end(), suffix.begin(), suffix.end());
      *items = std::move(prefix);
      return true;
    }
  }
  return false;
}

ReRef ItemsToRe(const Items& items) {
  if (items.empty()) return nullptr;
  if (items.size() == 1) return items[0];
  Items copy = items;
  return Re::Concat(std::move(copy));
}

/// Leading atom used as the factoring key: first child of a concat, or
/// the expression itself.
ReRef LeadingAtom(const ReRef& re) {
  return re->kind() == ReKind::kConcat ? re->children().front() : re;
}

ReRef TrailingAtom(const ReRef& re) {
  return re->kind() == ReKind::kConcat ? re->children().back() : re;
}

/// Remainder after stripping the leading atom; nullptr when nothing is
/// left.
ReRef StripLeading(const ReRef& re) {
  if (re->kind() != ReKind::kConcat) return nullptr;
  Items rest(re->children().begin() + 1, re->children().end());
  return ItemsToRe(rest);
}

ReRef StripTrailing(const ReRef& re) {
  if (re->kind() != ReKind::kConcat) return nullptr;
  Items rest(re->children().begin(), re->children().end() - 1);
  return ItemsToRe(rest);
}

/// Serialization key for structural grouping.
std::string Key(const ReRef& re) {
  switch (re->kind()) {
    case ReKind::kSymbol:
      return Numbered("s", re->symbol());
    case ReKind::kConcat: {
      std::string out = "C(";
      for (const auto& c : re->children()) out += Key(c) + ",";
      return out + ")";
    }
    case ReKind::kDisj: {
      std::string out = "D(";
      for (const auto& c : re->children()) out += Key(c) + ",";
      return out + ")";
    }
    case ReKind::kShuffle: {
      std::string out = "&(";
      for (const auto& c : re->children()) out += Key(c) + ",";
      return out + ")";
    }
    case ReKind::kPlus:
      return "P(" + Key(re->child()) + ")";
    case ReKind::kOpt:
      return "O(" + Key(re->child()) + ")";
    case ReKind::kStar:
      return "*(" + Key(re->child()) + ")";
  }
  return "?";
}

ReRef FactorOnce(const ReRef& re, bool prefix) {
  if (re->kind() != ReKind::kDisj) return re;
  std::map<std::string, std::vector<ReRef>> groups;
  std::vector<std::string> group_order;
  for (const auto& alt : re->children()) {
    ReRef atom = prefix ? LeadingAtom(alt) : TrailingAtom(alt);
    std::string key = Key(atom);
    if (groups.count(key) == 0) group_order.push_back(key);
    groups[key].push_back(alt);
  }
  if (group_order.size() == re->children().size()) return re;  // no sharing
  std::vector<ReRef> alts;
  for (const std::string& key : group_order) {
    const std::vector<ReRef>& members = groups[key];
    if (members.size() == 1) {
      alts.push_back(members[0]);
      continue;
    }
    ReRef atom = prefix ? LeadingAtom(members[0]) : TrailingAtom(members[0]);
    std::vector<ReRef> remainders;
    bool any_empty = false;
    for (const auto& member : members) {
      ReRef rest = prefix ? StripLeading(member) : StripTrailing(member);
      if (rest == nullptr) {
        any_empty = true;
      } else {
        remainders.push_back(rest);
      }
    }
    ReRef tail;
    if (!remainders.empty()) {
      tail = remainders.size() == 1 ? remainders[0]
                                    : FactorOnce(Re::Disj(remainders), prefix);
      if (any_empty) tail = Re::Opt(tail);
    }
    if (tail == nullptr) {
      alts.push_back(atom);
    } else if (prefix) {
      alts.push_back(Re::Concat({atom, tail}));
    } else {
      alts.push_back(Re::Concat({tail, atom}));
    }
  }
  return alts.size() == 1 ? alts[0] : Re::Disj(std::move(alts));
}

/// MDL costs. Theory cost: tokens of the candidate. Data cost of a
/// sequence under a candidate: one "choice" unit per consumed symbol,
/// scaled by the candidate's branching (disjunction alternatives and
/// closure operators all add choice points).
double TheoryCost(const ReRef& re) { return CountTokens(re); }

double DataCost(const Word& word, const ReRef& re) {
  int branching = 1;
  std::vector<const Re*> stack = {re.get()};
  while (!stack.empty()) {
    const Re* node = stack.back();
    stack.pop_back();
    if (node->kind() == ReKind::kDisj) {
      branching += static_cast<int>(node->children().size()) - 1;
    }
    if (node->kind() == ReKind::kPlus || node->kind() == ReKind::kStar) {
      branching += 1;
    }
    for (const auto& c : node->children()) stack.push_back(c.get());
  }
  double bits_per_symbol = 1.0;
  int b = branching;
  while (b > 1) {
    bits_per_symbol += 1.0;
    b /= 2;
  }
  return bits_per_symbol * static_cast<double>(word.size() + 1);
}

}  // namespace

std::vector<ReRef> XtractGeneralize(const Word& word) {
  std::vector<ReRef> candidates;
  std::set<std::string> seen;
  auto add = [&](const Items& items) {
    ReRef re = ItemsToRe(items);
    if (re == nullptr) return;
    if (seen.insert(Key(re)).second) candidates.push_back(re);
  };
  Items plain = WordToItems(word);
  add(plain);
  Items runs = CollapseRuns(plain);
  add(runs);
  Items tandem = runs;
  while (CollapseOneTandem(&tandem)) {
    tandem = CollapseRuns(tandem);
  }
  add(tandem);
  return candidates;
}

ReRef XtractFactor(const ReRef& re) {
  ReRef out = FactorOnce(re, /*prefix=*/true);
  out = FactorOnce(out, /*prefix=*/false);
  return out;
}

Result<ReRef> XtractInfer(const std::vector<Word>& sample,
                          const XtractOptions& options) {
  // Distinct sequences only (the original dedups too).
  std::set<Word> distinct_set;
  bool has_empty = false;
  for (const Word& w : sample) {
    if (w.empty()) {
      has_empty = true;
    } else {
      distinct_set.insert(w);
    }
  }
  std::vector<Word> distinct(distinct_set.begin(), distinct_set.end());
  if (static_cast<int>(distinct.size()) > options.max_strings) {
    return Status::ResourceExhausted(
        "XTRACT: " + std::to_string(distinct.size()) +
        " distinct sequences exceed the feasible limit of " +
        std::to_string(options.max_strings) +
        " (the original system exhausts memory on such inputs)");
  }
  if (distinct.empty()) {
    return Status::FailedPrecondition("XTRACT: no non-empty sequences");
  }

  // Stage 1: candidate pool.
  std::vector<ReRef> pool;
  std::set<std::string> pool_keys;
  for (const Word& w : distinct) {
    for (const ReRef& candidate : XtractGeneralize(w)) {
      if (pool_keys.insert(Key(candidate)).second) {
        pool.push_back(candidate);
      }
      if (static_cast<int>(pool.size()) > options.max_candidates) {
        return Status::ResourceExhausted(
            "XTRACT: candidate pool exceeded " +
            std::to_string(options.max_candidates));
      }
    }
  }

  // Stage 3 (MDL): greedy cover. coverage[c][i] = candidate c matches
  // sequence i.
  std::vector<Matcher> matchers;
  matchers.reserve(pool.size());
  for (const ReRef& c : pool) matchers.emplace_back(c);
  std::vector<std::vector<int>> covers(pool.size());
  for (size_t c = 0; c < pool.size(); ++c) {
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (matchers[c].Matches(distinct[i])) {
        covers[c].push_back(static_cast<int>(i));
      }
    }
  }
  std::vector<bool> covered(distinct.size(), false);
  size_t remaining = distinct.size();
  std::vector<ReRef> chosen;
  while (remaining > 0) {
    double best_score = std::numeric_limits<double>::max();
    int best = -1;
    for (size_t c = 0; c < pool.size(); ++c) {
      double data = 0;
      int gain = 0;
      for (int i : covers[c]) {
        if (!covered[i]) {
          ++gain;
          data += DataCost(distinct[i], pool[c]);
        }
      }
      if (gain == 0) continue;
      double score = (TheoryCost(pool[c]) + data) / gain;
      if (score < best_score) {
        best_score = score;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) break;  // cannot happen: the plain candidate covers
    chosen.push_back(pool[best]);
    for (int i : covers[best]) {
      if (!covered[i]) {
        covered[i] = true;
        --remaining;
      }
    }
  }

  ReRef result =
      chosen.size() == 1 ? chosen[0] : Re::Disj(std::move(chosen));
  // Stage 2: factoring of the final disjunction.
  result = XtractFactor(result);
  if (has_empty) result = Re::Opt(result);
  return result;
}

}  // namespace condtd
