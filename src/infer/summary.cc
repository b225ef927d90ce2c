#include "infer/summary.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "automaton/two_t_inf.h"
#include "base/fold_scratch.h"
#include "base/mem_estimate.h"
#include "base/strings.h"
#include "obs/metrics.h"

namespace condtd {

void ElementSummary::AddChildWord(const Word& word, int64_t multiplicity,
                                  const SummaryLimits& limits) {
  Fold2T(word, &soa, multiplicity);
  crx.AddWord(word, multiplicity);
  RetainWord(word, limits);
}

void ElementSummary::RetainWord(const Word& word,
                                const SummaryLimits& limits) {
  if (limits.max_retained_words > 0 && !words_overflowed) {
    auto [it, inserted] = retained_words.insert(word);
    if (inserted && static_cast<int>(retained_words.size()) >
                        limits.max_retained_words) {
      retained_words.erase(it);
      words_overflowed = true;
    }
  }
}

void FoldTally::Count(std::span<const Symbol> word, int64_t multiplicity) {
  if (!obs::StatsEnabled()) return;
  child_word_folds += multiplicity;
  if (word.empty()) return;
  auto [min_symbol, max_symbol] = std::minmax_element(word.begin(), word.end());
  if (*min_symbol >= 0 && *max_symbol < kDenseFoldWindow) {
    ++dense_hits;
  } else {
    ++dense_fallbacks;
  }
}

void FoldTally::Publish() const {
  if (child_word_folds != 0) {
    obs::CounterAdd(obs::Counter::kChildWordFolds, child_word_folds);
  }
  if (dense_hits != 0) {
    obs::SchedAdd(obs::SchedCounter::kDenseFoldHits, dense_hits);
  }
  if (dense_fallbacks != 0) {
    obs::SchedAdd(obs::SchedCounter::kDenseFoldFallbacks, dense_fallbacks);
  }
}

void ElementSummary::MergeFrom(const ElementSummary& other,
                               const std::vector<Symbol>* remap,
                               const SummaryLimits& limits) {
  occurrences += other.occurrences;
  has_text = has_text || other.has_text;
  text_types &= other.text_types;
  for (const auto& [attr, count] : other.attribute_counts) {
    attribute_counts[attr] += count;
  }
  if (remap == nullptr) {
    soa.MergeFrom(other.soa);
    crx.MergeFrom(other.crx);
  } else {
    soa.MergeFrom(other.soa, *remap);
    crx.MergeFrom(other.crx, *remap);
  }
  words_complete = words_complete && other.words_complete;
  words_overflowed = words_overflowed || other.words_overflowed;
  if (limits.max_retained_words > 0 && !words_overflowed) {
    for (const Word& theirs : other.retained_words) {
      Word word = theirs;
      if (remap != nullptr) {
        for (Symbol& s : word) s = (*remap)[s];
      }
      auto [it, inserted] = retained_words.insert(std::move(word));
      if (inserted && static_cast<int>(retained_words.size()) >
                          limits.max_retained_words) {
        retained_words.erase(it);
        words_overflowed = true;
        break;
      }
    }
  }
}

SummaryStore::SummaryStore(SummaryLimits limits) : limits_(limits) {}

ElementSummary& SummaryStore::Ensure(Symbol symbol) {
  auto [it, inserted] = elements_.try_emplace(symbol);
  if (inserted) it->second.words_complete = limits_.max_retained_words > 0;
  MarkChanged(symbol);
  return it->second;
}

void SummaryStore::MarkChanged(Symbol symbol) {
  if (symbol >= static_cast<Symbol>(versions_.size())) {
    versions_.resize(symbol + 1, 0);
  }
  versions_[symbol] = ++clock_;
}

ElementSummary* SummaryStore::Find(Symbol symbol) {
  auto it = elements_.find(symbol);
  return it == elements_.end() ? nullptr : &it->second;
}

const ElementSummary* SummaryStore::Find(Symbol symbol) const {
  auto it = elements_.find(symbol);
  return it == elements_.end() ? nullptr : &it->second;
}

void SummaryStore::MarkSeenAsChild(Symbol symbol) {
  if (symbol >= static_cast<Symbol>(seen_as_child_.size())) {
    seen_as_child_.resize(symbol + 1, false);
  }
  seen_as_child_[symbol] = true;
}

bool SummaryStore::SeenAsChild(Symbol symbol) const {
  return symbol >= 0 &&
         symbol < static_cast<Symbol>(seen_as_child_.size()) &&
         seen_as_child_[symbol];
}

Symbol SummaryStore::Root() const {
  Symbol root = kInvalidSymbol;
  int64_t best = -1;
  for (const auto& [symbol, count] : root_counts_) {
    if (count > best) {
      best = count;
      root = symbol;
    }
  }
  if (root != kInvalidSymbol || elements_.empty()) return root;
  for (const auto& [symbol, summary] : elements_) {
    if (!SeenAsChild(symbol)) return symbol;
  }
  return elements_.begin()->first;
}

void SummaryStore::MergeFrom(const SummaryStore& other,
                             const std::vector<Symbol>& remap) {
  for (const auto& [symbol, count] : other.root_counts_) {
    root_counts_[remap[symbol]] += count;
  }
  for (Symbol s = 0; s < static_cast<Symbol>(other.seen_as_child_.size());
       ++s) {
    if (other.seen_as_child_[s]) MarkSeenAsChild(remap[s]);
  }
  for (const auto& [symbol, theirs] : other.elements_) {
    Ensure(remap[symbol]).MergeFrom(theirs, &remap, limits_);
    obs::SchedAdd(obs::SchedCounter::kSummaryMerges, 1);
  }
}

namespace {

/// Reverses the percent-escaping (space, %, CR, LF) of the text samples
/// that format versions 1 and 2 carry.
std::string UnescapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      auto hex = [](char c) {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return 0;
      };
      out += static_cast<char>(hex(text[i + 1]) * 16 + hex(text[i + 2]));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

}  // namespace

std::string SummaryStore::Save(const Alphabet& alphabet) const {
  std::string out = "condtd-state 3\n";
  auto name = [&](Symbol s) -> const std::string& { return alphabet.Name(s); };
  for (const auto& [symbol, count] : root_counts_) {
    out += "root " + name(symbol) + " " + std::to_string(count) + "\n";
  }
  for (Symbol symbol = 0;
       symbol < static_cast<Symbol>(seen_as_child_.size()); ++symbol) {
    if (seen_as_child_[symbol]) out += "child " + name(symbol) + "\n";
  }
  for (const auto& [symbol, summary] : elements_) {
    out += "element " + name(symbol) + " " +
           std::to_string(summary.occurrences) + " " +
           (summary.has_text ? "1" : "0") + "\n";
    for (const auto& [attr, count] : summary.attribute_counts) {
      out += "attr " + attr + " " + std::to_string(count) + "\n";
    }
    if (summary.has_text) {
      out += "text.types " + std::to_string(summary.text_types) + "\n";
    }
    // States, and each state's edges, in symbol-id order rather than the
    // fold's first-occurrence numbering, which differs between shards.
    const Soa& soa = summary.soa;
    auto by_label = [&soa](int q, int r) {
      return soa.LabelOf(q) < soa.LabelOf(r);
    };
    std::vector<int> states(soa.NumStates());
    std::iota(states.begin(), states.end(), 0);
    std::sort(states.begin(), states.end(), by_label);
    for (int q : states) {
      out += "soa.state " + name(soa.LabelOf(q)) + " " +
             std::to_string(soa.StateSupport(q)) + "\n";
      if (soa.IsInitial(q)) {
        out += "soa.init " + name(soa.LabelOf(q)) + " " +
               std::to_string(soa.InitialSupport(q)) + "\n";
      }
      if (soa.IsFinal(q)) {
        out += "soa.final " + name(soa.LabelOf(q)) + " " +
               std::to_string(soa.FinalSupport(q)) + "\n";
      }
      std::vector<int> successors = soa.Successors(q);
      std::sort(successors.begin(), successors.end(), by_label);
      for (int to : successors) {
        out += "soa.edge " + name(soa.LabelOf(q)) + " " +
               name(soa.LabelOf(to)) + " " +
               std::to_string(soa.EdgeSupport(q, to)) + "\n";
      }
    }
    if (soa.accepts_empty()) {
      out += "soa.empty " + std::to_string(soa.empty_support()) + "\n";
    }
    // →_W lives once, in the SOA; the crx.edge lines repeat it.
    for (const auto& [from, to] : soa.SymbolEdges()) {
      out += "crx.edge " + name(from) + " " + name(to) + "\n";
    }
    const CrxState& crx = summary.crx;
    if (crx.empty_count() > 0) {
      out += "crx.empty " + std::to_string(crx.empty_count()) + "\n";
    }
    for (const auto& [histogram, count] : crx.SortedHistograms()) {
      out += "crx.hist " + std::to_string(count);
      for (const auto& [sym, n] : histogram) {
        out += ' ';
        out += name(sym);
        out += '=';
        out += std::to_string(n);
      }
      out += '\n';
    }
    // Distinct-word reservoir (version 2): sorted, so the rendering is
    // canonical. ε is the bare "word" line. An element with no word
    // lines and no flag simply has an empty (complete) reservoir.
    for (const Word& word : summary.retained_words) {
      out += "word";
      for (Symbol s : word) {
        out += ' ';
        out += name(s);
      }
      out += '\n';
    }
    if (summary.words_overflowed) out += "words.overflowed\n";
    if (!summary.words_complete) out += "words.incomplete\n";
  }
  out += "end\n";
  return out;
}

Status SummaryStore::Load(std::string_view serialized, Alphabet* alphabet) {
  std::vector<std::string> lines = SplitString(serialized, '\n');
  int version = 0;
  if (!lines.empty()) {
    if (lines[0] == "condtd-state 1") {
      version = 1;
    } else if (lines[0] == "condtd-state 2") {
      version = 2;
    } else if (lines[0] == "condtd-state 3") {
      version = 3;
    } else if (lines[0].rfind("condtd-state ", 0) == 0) {
      return Status::ParseError(
          "state file format version " +
          lines[0].substr(std::string("condtd-state ").size()) +
          " is not supported by this build (supported: 1, 2, 3)");
    }
  }
  if (version == 0) {
    return Status::ParseError("unrecognized state header");
  }
  // Save writes the element lines in the saver's ascending symbol order,
  // after the root and child lines. Interning the element names first
  // gives a fresh alphabet the saver's numbering back, and a non-empty
  // one the saver's relative order, as MergeFrom does.
  for (size_t i = 1; i < lines.size() && lines[i] != "end"; ++i) {
    if (!StartsWith(lines[i], "element ")) continue;
    std::vector<std::string> fields = SplitString(lines[i], ' ');
    if (fields.size() == 4) alphabet->Intern(fields[1]);
  }
  ElementSummary* current = nullptr;
  bool saw_end = false;
  // →_W is kept once, in the SOA, so a section's crx.edge lines must
  // state exactly its soa.edge relation. Each maps an edge to the first
  // line (1-based) that states it; compared when the section closes.
  // The file's own lines are compared, not the merged SOA, since Load
  // may merge into a store that already holds this element.
  std::map<std::pair<Symbol, Symbol>, size_t> soa_edge_lines;
  std::map<std::pair<Symbol, Symbol>, size_t> crx_edge_lines;
  // Whether the section's element line says it has text. Only such a
  // section carries a datatype line (text.types, or version 1/2 text
  // samples); one that carries none leaves its values unknown, so its
  // mask is 0, the xs:string that an empty sample list always gave.
  bool section_text = false;
  bool untyped_text = false;
  auto close_section = [&]() {
    if (untyped_text) current->text_types = 0;
    untyped_text = false;
    auto unmatched = [&](const auto& lines_of, const auto& other,
                         const char* tag, const char* other_tag) {
      for (const auto& [edge, line] : lines_of) {
        if (other.count(edge) == 0) {
          return Status::ParseError(
              "state line " + std::to_string(line) + ": " + tag + " " +
              alphabet->Name(edge.first) + " " + alphabet->Name(edge.second) +
              " has no matching " + other_tag + " line");
        }
      }
      return Status::OK();
    };
    Status status =
        unmatched(crx_edge_lines, soa_edge_lines, "crx.edge", "soa.edge");
    if (status.ok()) {
      status =
          unmatched(soa_edge_lines, crx_edge_lines, "soa.edge", "crx.edge");
    }
    soa_edge_lines.clear();
    crx_edge_lines.clear();
    return status;
  };
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    std::vector<std::string> fields = SplitString(lines[i], ' ');
    const std::string& tag = fields[0];
    auto require = [&](size_t n) {
      return fields.size() == n
                 ? Status::OK()
                 : Status::ParseError("state line " + std::to_string(i + 1) +
                                      ": expected " + std::to_string(n) +
                                      " fields");
    };
    // Counts and supports are untrusted input: they must be genuine
    // non-negative integers (std::atoll would silently accept junk and
    // hit undefined behavior on out-of-range digits).
    auto count64 = [&](const std::string& field, int64_t* out) {
      if (!ParseInt64(field, out) || *out < 0) {
        return Status::ParseError("state line " + std::to_string(i + 1) +
                                  ": '" + field +
                                  "' is not a non-negative count");
      }
      return Status::OK();
    };
    auto count32 = [&](const std::string& field, int32_t* out) {
      int64_t wide;
      CONDTD_RETURN_IF_ERROR(count64(field, &wide));
      if (wide > INT32_MAX) {
        return Status::ParseError("state line " + std::to_string(i + 1) +
                                  ": support '" + field +
                                  "' exceeds the 32-bit range");
      }
      *out = static_cast<int32_t>(wide);
      return Status::OK();
    };
    // Every line can be in range and the running total still leave its
    // type: two lines for one count, or a count the store already holds.
    // `held` and `added` are non-negative.
    auto fits = [&](int64_t held, int64_t added, int64_t limit) {
      if (added <= limit - held) return Status::OK();
      return Status::ParseError("state line " + std::to_string(i + 1) +
                                ": count " + std::to_string(added) +
                                " overflows the total " +
                                std::to_string(held) + " it adds to");
    };
    if (tag == "end") {
      CONDTD_RETURN_IF_ERROR(close_section());
      saw_end = true;
      break;
    }
    if (tag == "root") {
      CONDTD_RETURN_IF_ERROR(require(3));
      int64_t count;
      CONDTD_RETURN_IF_ERROR(count64(fields[2], &count));
      int64_t& total = root_counts_[alphabet->Intern(fields[1])];
      CONDTD_RETURN_IF_ERROR(fits(total, count, INT64_MAX));
      total += count;
      continue;
    }
    if (tag == "child") {
      CONDTD_RETURN_IF_ERROR(require(2));
      MarkSeenAsChild(alphabet->Intern(fields[1]));
      continue;
    }
    if (tag == "element") {
      CONDTD_RETURN_IF_ERROR(close_section());
      CONDTD_RETURN_IF_ERROR(require(4));
      int64_t occurrences;
      CONDTD_RETURN_IF_ERROR(count64(fields[2], &occurrences));
      current = &Ensure(alphabet->Intern(fields[1]));
      CONDTD_RETURN_IF_ERROR(
          fits(current->occurrences, occurrences, INT64_MAX));
      current->occurrences += occurrences;
      current->has_text = current->has_text || fields[3] == "1";
      section_text = fields[3] == "1";
      untyped_text = section_text;
      // A version-1 file cannot carry the reservoir, so summaries loaded
      // from it can never satisfy a needs-full-words learner.
      if (version == 1) current->words_complete = false;
      // Create the SOA states in the order of their soa.state lines
      // (symbol-id order, as Save writes them) before an edge line can
      // create a successor state ahead of its turn.
      for (size_t j = i + 1; j < lines.size() && lines[j] != "end" &&
                             !StartsWith(lines[j], "element ");
           ++j) {
        if (!StartsWith(lines[j], "soa.state ")) continue;
        std::vector<std::string> state = SplitString(lines[j], ' ');
        if (state.size() == 3) {
          current->soa.AddState(alphabet->Intern(state[1]));
        }
      }
      continue;
    }
    if (current == nullptr) {
      return Status::ParseError("state line " + std::to_string(i + 1) +
                                ": '" + tag + "' before any element");
    }
    if (tag == "attr") {
      CONDTD_RETURN_IF_ERROR(require(3));
      int64_t count;
      CONDTD_RETURN_IF_ERROR(count64(fields[2], &count));
      int64_t& total = current->attribute_counts[fields[1]];
      CONDTD_RETURN_IF_ERROR(fits(total, count, INT64_MAX));
      total += count;
    } else if (tag == "text" && version < 3) {
      CONDTD_RETURN_IF_ERROR(require(2));
      // A sample in a section without text never named a type.
      if (section_text) {
        current->text_types &= TextTypes(UnescapeText(fields[1]));
        untyped_text = false;
      }
    } else if (tag == "text.types" && version >= 3) {
      CONDTD_RETURN_IF_ERROR(require(2));
      if (!section_text) {
        return Status::ParseError("state line " + std::to_string(i + 1) +
                                  ": text.types in a section without text");
      }
      int64_t types;
      CONDTD_RETURN_IF_ERROR(count64(fields[1], &types));
      if (types > kAllTextTypes) {
        return Status::ParseError("state line " + std::to_string(i + 1) +
                                  ": text.types " + fields[1] +
                                  " is not a datatype mask (0-" +
                                  std::to_string(kAllTextTypes) + ")");
      }
      current->text_types &= static_cast<uint8_t>(types);
      untyped_text = false;
    } else if (tag == "soa.state") {
      CONDTD_RETURN_IF_ERROR(require(3));
      int32_t support;
      CONDTD_RETURN_IF_ERROR(count32(fields[2], &support));
      int q = current->soa.AddState(alphabet->Intern(fields[1]));
      CONDTD_RETURN_IF_ERROR(
          fits(current->soa.StateSupport(q), support, INT32_MAX));
      current->soa.AddStateSupport(q, support);
    } else if (tag == "soa.init") {
      CONDTD_RETURN_IF_ERROR(require(3));
      int32_t support;
      CONDTD_RETURN_IF_ERROR(count32(fields[2], &support));
      int q = current->soa.AddState(alphabet->Intern(fields[1]));
      CONDTD_RETURN_IF_ERROR(
          fits(current->soa.InitialSupport(q), support, INT32_MAX));
      current->soa.AddInitial(q, support);
    } else if (tag == "soa.final") {
      CONDTD_RETURN_IF_ERROR(require(3));
      int32_t support;
      CONDTD_RETURN_IF_ERROR(count32(fields[2], &support));
      int q = current->soa.AddState(alphabet->Intern(fields[1]));
      CONDTD_RETURN_IF_ERROR(
          fits(current->soa.FinalSupport(q), support, INT32_MAX));
      current->soa.AddFinal(q, support);
    } else if (tag == "soa.edge") {
      CONDTD_RETURN_IF_ERROR(require(4));
      int32_t support;
      CONDTD_RETURN_IF_ERROR(count32(fields[3], &support));
      Symbol from = alphabet->Intern(fields[1]);
      Symbol to = alphabet->Intern(fields[2]);
      soa_edge_lines.try_emplace({from, to}, i + 1);
      int q = current->soa.AddState(from);
      int r = current->soa.AddState(to);
      CONDTD_RETURN_IF_ERROR(
          fits(current->soa.EdgeSupport(q, r), support, INT32_MAX));
      current->soa.AddEdge(q, r, support);
    } else if (tag == "soa.empty") {
      CONDTD_RETURN_IF_ERROR(require(2));
      int32_t support;
      CONDTD_RETURN_IF_ERROR(count32(fields[1], &support));
      CONDTD_RETURN_IF_ERROR(
          fits(current->soa.empty_support(), support, INT32_MAX));
      current->soa.set_accepts_empty(true);
      current->soa.add_empty_support(support);
    } else if (tag == "crx.edge") {
      CONDTD_RETURN_IF_ERROR(require(3));
      crx_edge_lines.try_emplace(
          {alphabet->Intern(fields[1]), alphabet->Intern(fields[2])}, i + 1);
    } else if (tag == "crx.empty") {
      CONDTD_RETURN_IF_ERROR(require(2));
      int64_t count;
      CONDTD_RETURN_IF_ERROR(count64(fields[1], &count));
      // num_words() sums every CRX count, so it bounds each of them.
      CONDTD_RETURN_IF_ERROR(fits(current->crx.num_words(), count, INT64_MAX));
      current->crx.RestoreEmpty(count);
    } else if (tag == "crx.hist") {
      if (fields.size() < 2) {
        return Status::ParseError("state line " + std::to_string(i + 1) +
                                  ": malformed histogram");
      }
      CrxState::Histogram histogram;
      // The words' length; CRX and the XSD bounds sum its parts in int.
      int64_t length = 0;
      for (size_t f = 2; f < fields.size(); ++f) {
        size_t eq = fields[f].rfind('=');
        if (eq == std::string::npos) {
          return Status::ParseError("state line " + std::to_string(i + 1) +
                                    ": malformed histogram entry");
        }
        int32_t n;
        CONDTD_RETURN_IF_ERROR(count32(fields[f].substr(eq + 1), &n));
        CONDTD_RETURN_IF_ERROR(fits(length, n, INT32_MAX));
        length += n;
        histogram.emplace_back(alphabet->Intern(fields[f].substr(0, eq)), n);
      }
      std::sort(histogram.begin(), histogram.end());
      int64_t hist_count;
      CONDTD_RETURN_IF_ERROR(count64(fields[1], &hist_count));
      CONDTD_RETURN_IF_ERROR(
          fits(current->crx.num_words(), hist_count, INT64_MAX));
      current->crx.RestoreHistogram(histogram, hist_count);
    } else if (tag == "word") {
      if (limits_.max_retained_words > 0 && !current->words_overflowed) {
        Word word;
        word.reserve(fields.size() - 1);
        for (size_t f = 1; f < fields.size(); ++f) {
          word.push_back(alphabet->Intern(fields[f]));
        }
        auto [it, inserted] =
            current->retained_words.insert(std::move(word));
        if (inserted && static_cast<int>(current->retained_words.size()) >
                            limits_.max_retained_words) {
          current->retained_words.erase(it);
          current->words_overflowed = true;
        }
      }
    } else if (tag == "words.overflowed") {
      CONDTD_RETURN_IF_ERROR(require(1));
      current->words_overflowed = true;
    } else if (tag == "words.incomplete") {
      CONDTD_RETURN_IF_ERROR(require(1));
      current->words_complete = false;
    } else {
      return Status::ParseError("state line " + std::to_string(i + 1) +
                                ": unknown tag '" + tag + "'");
    }
  }
  if (!saw_end) {
    return Status::ParseError("truncated state (missing 'end')");
  }
  return Status::OK();
}

size_t ElementSummary::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  bytes += soa.ApproxBytes() + crx.ApproxBytes();
  bytes += TreeBytes(attribute_counts);
  for (const auto& [name, count] : attribute_counts) {
    (void)count;
    bytes += StringBytes(name);
  }
  bytes += TreeBytes(retained_words);
  for (const Word& word : retained_words) bytes += VectorBytes(word);
  return bytes;
}

size_t SummaryStore::ApproxBytes() const {
  size_t bytes = OwnBytes();
  for (const auto& [symbol, summary] : elements_) {
    (void)symbol;
    bytes += summary.ApproxBytes();
  }
  return bytes;
}

size_t SummaryStore::OwnBytes() const {
  return sizeof(*this) + TreeBytes(elements_) + TreeBytes(root_counts_) +
         VectorBytes(seen_as_child_) + VectorBytes(versions_);
}

size_t StoreBytesMemo::ApproxBytes(const SummaryStore& store) {
  for (const auto& [symbol, summary] : store.elements()) {
    const uint64_t version = store.version(symbol);
    const size_t index = static_cast<size_t>(symbol);
    if (index >= measured_.size()) measured_.resize(index + 1, {0, 0});
    auto& [measured_version, bytes] = measured_[index];
    if (measured_version == version) continue;
    summaries_bytes_ -= bytes;
    bytes = summary.ApproxBytes();
    summaries_bytes_ += bytes;
    measured_version = version;
  }
  return store.OwnBytes() + summaries_bytes_;
}

}  // namespace condtd
