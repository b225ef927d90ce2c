#include "check/oracles.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "automaton/dfa.h"
#include "base/strings.h"
#include "check/reference_fold.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "infer/engine.h"
#include "infer/session.h"
#include "infer/streaming.h"
#include "regex/determinism.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/properties.h"
#include "serve/corpus.h"
#include "xml/parser.h"
#include "xsd/writer.h"

namespace condtd {

namespace {

std::string Render(const ReRef& re, const Alphabet& alphabet) {
  return ToString(re, alphabet, PrintStyle::kParseable);
}

std::string RenderWord(const Word& word, const Alphabet& alphabet) {
  if (word.empty()) return "<empty word>";
  return alphabet.WordToString(word);
}

int AlphabetSizeOf(const ReRef& re, const Soa& soa) {
  Symbol max_sym = -1;
  for (Symbol s : SymbolsOf(re)) max_sym = std::max(max_sym, s);
  for (int q = 0; q < soa.NumStates(); ++q) {
    max_sym = std::max(max_sym, soa.LabelOf(q));
  }
  return static_cast<int>(max_sym) + 1;
}

}  // namespace

OracleResult CheckSampleInclusion(const ReRef& inferred,
                                  const std::vector<Word>& sample,
                                  const Alphabet& alphabet) {
  Matcher matcher(inferred);
  for (const Word& word : sample) {
    if (!matcher.Matches(word)) {
      return OracleResult::Fail("inferred expression " +
                                Render(inferred, alphabet) +
                                " rejects sample word '" +
                                RenderWord(word, alphabet) + "'");
    }
  }
  return OracleResult::Pass();
}

OracleResult CheckDeterminism(const ReRef& re, const Alphabet& alphabet) {
  if (!IsDeterministic(re)) {
    return OracleResult::Fail("expression " + Render(re, alphabet) +
                              " is not one-unambiguous");
  }
  return OracleResult::Pass();
}

OracleResult CheckSoreValidity(const ReRef& re, const Alphabet& alphabet) {
  if (!IsSore(re)) {
    return OracleResult::Fail("expression " + Render(re, alphabet) +
                              " is not a SORE");
  }
  return OracleResult::Pass();
}

OracleResult CheckChareValidity(const ReRef& re, const Alphabet& alphabet) {
  if (!IsChare(re)) {
    return OracleResult::Fail("expression " + Render(re, alphabet) +
                              " is not a CHARE");
  }
  return OracleResult::Pass();
}

OracleResult CheckSireValidity(const ReRef& re, const Alphabet& alphabet) {
  if (!IsSire(re)) {
    return OracleResult::Fail("expression " + Render(re, alphabet) +
                              " is not a SIRE (a SORE, or a top-level "
                              "'&' of disjoint SOREs)");
  }
  return OracleResult::Pass();
}

OracleResult CheckConcisenessDominance(const ReRef& candidate,
                                       const ReRef& baseline,
                                       const Alphabet& alphabet) {
  int64_t candidate_tokens = CountTokens(candidate);
  int64_t baseline_tokens = CountTokens(baseline);
  if (candidate_tokens > baseline_tokens) {
    return OracleResult::Fail(
        "candidate " + Render(candidate, alphabet) + " has " +
        std::to_string(candidate_tokens) + " tokens, more than the " +
        std::to_string(baseline_tokens) + " of baseline " +
        Render(baseline, alphabet));
  }
  OracleResult inclusion =
      CheckLanguageInclusion(candidate, baseline, alphabet);
  if (!inclusion.passed) {
    return OracleResult::Fail("candidate generalizes beyond the baseline: " +
                              inclusion.detail);
  }
  return OracleResult::Pass();
}

OracleResult CheckLanguageInclusion(const ReRef& sub, const ReRef& super,
                                    const Alphabet& alphabet) {
  Result<Word> witness = FindInclusionCounterexample(sub, super);
  if (witness.ok()) {
    return OracleResult::Fail(
        "L(" + Render(sub, alphabet) + ") ⊄ L(" + Render(super, alphabet) +
        "): missing word '" + RenderWord(witness.value(), alphabet) + "'");
  }
  if (witness.status().code() != StatusCode::kNotFound) {
    return OracleResult::Fail("inclusion check failed: " +
                              witness.status().ToString());
  }
  return OracleResult::Pass();
}

OracleResult CheckLanguageEquivalence(const ReRef& a, const ReRef& b,
                                      const Alphabet& alphabet) {
  Result<Word> witness = FindDistinguishingWord(a, b);
  if (witness.ok()) {
    return OracleResult::Fail(
        "L(" + Render(a, alphabet) + ") ≠ L(" + Render(b, alphabet) +
        "): distinguishing word '" +
        RenderWord(witness.value(), alphabet) + "'");
  }
  if (witness.status().code() != StatusCode::kNotFound) {
    return OracleResult::Fail("equivalence check failed: " +
                              witness.status().ToString());
  }
  return OracleResult::Pass();
}

OracleResult CheckSoaEquivalence(const ReRef& re, const Soa& soa,
                                 const Alphabet& alphabet) {
  int n = AlphabetSizeOf(re, soa);
  if (n == 0) n = 1;
  Dfa re_dfa = CompileToDfa(re, n);
  Dfa soa_dfa = Dfa::FromNfa(soa.ToNfa(), n);
  Result<Word> witness = FindDistinguishingWordDfa(re_dfa, soa_dfa);
  if (witness.ok()) {
    return OracleResult::Fail("L(" + Render(re, alphabet) +
                              ") differs from the SOA language on '" +
                              RenderWord(witness.value(), alphabet) + "'");
  }
  if (witness.status().code() != StatusCode::kNotFound) {
    return OracleResult::Fail("SOA equivalence check failed: " +
                              witness.status().ToString());
  }
  return OracleResult::Pass();
}

OracleResult CheckDtdRoundTrip(const Dtd& dtd, const Alphabet& alphabet) {
  std::string text = WriteDtd(dtd, alphabet);
  Alphabet reparsed_alphabet;
  std::string root_name =
      dtd.root == kInvalidSymbol ? "" : alphabet.Name(dtd.root);
  Result<Dtd> reparsed = ParseDtd(text, &reparsed_alphabet, root_name);
  if (!reparsed.ok()) {
    return OracleResult::Fail("written DTD failed to re-parse: " +
                              reparsed.status().ToString() + "\n" + text);
  }
  // Map the re-parsed symbols back onto the original alphabet by name.
  std::map<Symbol, Symbol> back;
  for (Symbol s = 0; s < reparsed_alphabet.size(); ++s) {
    Symbol original = alphabet.Find(reparsed_alphabet.Name(s));
    if (original == kInvalidSymbol) {
      return OracleResult::Fail("re-parsed DTD names unknown element '" +
                                reparsed_alphabet.Name(s) + "'");
    }
    back[s] = original;
  }
  auto remap = [&](Symbol s) { return back.at(s); };
  if (dtd.root != kInvalidSymbol &&
      remap(reparsed->root) != dtd.root) {
    return OracleResult::Fail(
        "root changed across the round trip: wrote '" +
        alphabet.Name(dtd.root) + "', re-parsed '" +
        reparsed_alphabet.Name(reparsed->root) + "'");
  }
  if (reparsed->elements.size() != dtd.elements.size()) {
    return OracleResult::Fail(
        "element count changed across the round trip: wrote " +
        std::to_string(dtd.elements.size()) + ", re-parsed " +
        std::to_string(reparsed->elements.size()));
  }
  for (const auto& [symbol, model] : dtd.elements) {
    std::string element_name = alphabet.Name(symbol);
    Symbol reparsed_symbol = reparsed_alphabet.Find(element_name);
    auto it = reparsed_symbol == kInvalidSymbol
                  ? reparsed->elements.end()
                  : reparsed->elements.find(reparsed_symbol);
    if (it == reparsed->elements.end()) {
      return OracleResult::Fail("element '" + element_name +
                                "' lost across the round trip");
    }
    const ContentModel& theirs = it->second;
    if (theirs.kind != model.kind) {
      return OracleResult::Fail("content kind of '" + element_name +
                                "' changed across the round trip");
    }
    if (model.kind == ContentKind::kChildren) {
      ReRef mapped = RemapSymbols(theirs.regex, back);
      if (!StructurallyEqual(mapped, model.regex)) {
        return OracleResult::Fail(
            "content model of '" + element_name +
            "' changed across the round trip: wrote " +
            Render(model.regex, alphabet) + ", re-parsed " +
            Render(mapped, alphabet));
      }
    } else if (model.kind == ContentKind::kMixed) {
      std::vector<Symbol> ours = model.mixed_symbols;
      std::vector<Symbol> mapped;
      for (Symbol s : theirs.mixed_symbols) mapped.push_back(remap(s));
      std::sort(ours.begin(), ours.end());
      std::sort(mapped.begin(), mapped.end());
      if (ours != mapped) {
        return OracleResult::Fail("mixed-content symbols of '" +
                                  element_name +
                                  "' changed across the round trip");
      }
    }
  }
  for (const auto& [symbol, defs] : dtd.attributes) {
    if (defs.empty()) continue;
    std::string element_name = alphabet.Name(symbol);
    Symbol reparsed_symbol = reparsed_alphabet.Find(element_name);
    auto it = reparsed_symbol == kInvalidSymbol
                  ? reparsed->attributes.end()
                  : reparsed->attributes.find(reparsed_symbol);
    if (it == reparsed->attributes.end() ||
        it->second.size() != defs.size()) {
      return OracleResult::Fail("attribute list of '" + element_name +
                                "' changed across the round trip");
    }
    for (size_t i = 0; i < defs.size(); ++i) {
      const Dtd::AttributeDef& ours = defs[i];
      const Dtd::AttributeDef& theirs = it->second[i];
      if (ours.name != theirs.name || ours.type != theirs.type ||
          ours.default_decl != theirs.default_decl) {
        return OracleResult::Fail("attribute '" + ours.name + "' of '" +
                                  element_name +
                                  "' changed across the round trip");
      }
    }
  }
  return OracleResult::Pass();
}

namespace {

OracleResult CompareSoas(const Soa& a, const Soa& b,
                         const Alphabet& alphabet,
                         const std::string& element_name) {
  if (!a.Equals(b)) {
    return OracleResult::Fail("SOA structure of '" + element_name +
                              "' differs:\n" + a.ToString(alphabet) +
                              "vs\n" + b.ToString(alphabet));
  }
  // Structures agree; compare supports by symbol label so state
  // numbering (which depends on fold/merge order) does not matter.
  for (int q = 0; q < a.NumStates(); ++q) {
    Symbol label = a.LabelOf(q);
    int p = b.StateOf(label);
    std::string state_name = alphabet.Name(label);
    if (a.StateSupport(q) != b.StateSupport(p)) {
      return OracleResult::Fail("SOA state support of '" + state_name +
                                "' in '" + element_name + "' differs: " +
                                std::to_string(a.StateSupport(q)) + " vs " +
                                std::to_string(b.StateSupport(p)));
    }
    if (a.InitialSupport(q) != b.InitialSupport(p)) {
      return OracleResult::Fail("SOA initial support of '" + state_name +
                                "' in '" + element_name + "' differs");
    }
    if (a.FinalSupport(q) != b.FinalSupport(p)) {
      return OracleResult::Fail("SOA final support of '" + state_name +
                                "' in '" + element_name + "' differs");
    }
    for (int to : a.Successors(q)) {
      int to_b = b.StateOf(a.LabelOf(to));
      if (a.EdgeSupport(q, to) != b.EdgeSupport(p, to_b)) {
        return OracleResult::Fail(
            "SOA edge support " + state_name + "→" +
            alphabet.Name(a.LabelOf(to)) + " in '" + element_name +
            "' differs: " + std::to_string(a.EdgeSupport(q, to)) + " vs " +
            std::to_string(b.EdgeSupport(p, to_b)));
      }
    }
  }
  if (a.empty_support() != b.empty_support()) {
    return OracleResult::Fail("SOA empty-word support of '" + element_name +
                              "' differs");
  }
  return OracleResult::Pass();
}

}  // namespace

OracleResult CheckSummaryEquivalence(const SummaryStore& a,
                                     const SummaryStore& b,
                                     const Alphabet& alphabet) {
  if (a.root_counts() != b.root_counts()) {
    return OracleResult::Fail("root counts differ");
  }
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    if (a.SeenAsChild(s) != b.SeenAsChild(s)) {
      return OracleResult::Fail("seen-as-child mark of '" +
                                alphabet.Name(s) + "' differs");
    }
  }
  if (a.elements().size() != b.elements().size()) {
    return OracleResult::Fail("element sets differ in size: " +
                              std::to_string(a.elements().size()) + " vs " +
                              std::to_string(b.elements().size()));
  }
  for (const auto& [symbol, ours] : a.elements()) {
    std::string element_name = alphabet.Name(symbol);
    const ElementSummary* theirs = b.Find(symbol);
    if (theirs == nullptr) {
      return OracleResult::Fail("element '" + element_name +
                                "' missing from one store");
    }
    if (ours.occurrences != theirs->occurrences) {
      return OracleResult::Fail(
          "occurrences of '" + element_name + "' differ: " +
          std::to_string(ours.occurrences) + " vs " +
          std::to_string(theirs->occurrences));
    }
    if (ours.has_text != theirs->has_text) {
      return OracleResult::Fail("has_text of '" + element_name +
                                "' differs");
    }
    if (ours.text_types != theirs->text_types) {
      return OracleResult::Fail(
          "text datatypes of '" + element_name + "' differ: " +
          std::to_string(ours.text_types) + " vs " +
          std::to_string(theirs->text_types));
    }
    if (ours.attribute_counts != theirs->attribute_counts) {
      return OracleResult::Fail("attribute counts of '" + element_name +
                                "' differ");
    }
    OracleResult soa =
        CompareSoas(ours.soa, theirs->soa, alphabet, element_name);
    if (!soa.passed) return soa;
    // →_W is the SOA's edge relation, compared above.
    if (ours.crx.SortedHistograms() != theirs->crx.SortedHistograms() ||
        ours.crx.empty_count() != theirs->crx.empty_count() ||
        ours.crx.num_words() != theirs->crx.num_words()) {
      return OracleResult::Fail("CRX summaries of '" + element_name +
                                "' differ");
    }
    if (ours.words_overflowed != theirs->words_overflowed) {
      return OracleResult::Fail("reservoir overflow flag of '" +
                                element_name + "' differs");
    }
    if (ours.words_complete != theirs->words_complete) {
      return OracleResult::Fail("reservoir completeness flag of '" +
                                element_name + "' differs");
    }
    if (!ours.words_overflowed &&
        ours.retained_words != theirs->retained_words) {
      return OracleResult::Fail("word reservoirs of '" + element_name +
                                "' differ");
    }
  }
  return OracleResult::Pass();
}

namespace {

/// Folds one shard of child words for `element` into a fresh store.
SummaryStore FoldShard(const std::vector<Word>& words, Symbol element,
                       const SummaryLimits& limits) {
  SummaryStore store(limits);
  ElementSummary& summary = store.Ensure(element);
  for (const Word& word : words) {
    summary.AddChildWord(word, 1, limits);
    summary.occurrences += 1;
    for (Symbol child : word) store.MarkSeenAsChild(child);
  }
  store.AddRoot(element, static_cast<int64_t>(words.size()));
  return store;
}

std::vector<Symbol> IdentityRemap(const Alphabet& alphabet) {
  std::vector<Symbol> remap(alphabet.size());
  for (Symbol s = 0; s < alphabet.size(); ++s) remap[s] = s;
  return remap;
}

}  // namespace

OracleResult CheckMergeLaws(const std::vector<std::vector<Word>>& shards,
                            Symbol element, const Alphabet& alphabet,
                            const SummaryLimits& limits) {
  std::vector<Word> all;
  for (const std::vector<Word>& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  SummaryStore sequential = FoldShard(all, element, limits);
  std::vector<Symbol> remap = IdentityRemap(alphabet);

  // Left fold: ((s0 ⊕ s1) ⊕ s2) ⊕ ...
  SummaryStore left(limits);
  for (const std::vector<Word>& shard : shards) {
    SummaryStore store = FoldShard(shard, element, limits);
    left.MergeFrom(store, remap);
  }
  OracleResult check = CheckSummaryEquivalence(sequential, left, alphabet);
  if (!check.passed) {
    return OracleResult::Fail("left-fold merge != sequential fold: " +
                              check.detail);
  }

  // Right fold: s0 ⊕ (s1 ⊕ (s2 ⊕ ...)) — associativity.
  SummaryStore right(limits);
  for (size_t i = shards.size(); i > 0; --i) {
    SummaryStore store = FoldShard(shards[i - 1], element, limits);
    store.MergeFrom(right, remap);
    right = std::move(store);
  }
  check = CheckSummaryEquivalence(sequential, right, alphabet);
  if (!check.passed) {
    return OracleResult::Fail("right-fold merge != sequential fold: " +
                              check.detail);
  }

  // Reversed shard order — commutativity.
  SummaryStore reversed(limits);
  for (size_t i = shards.size(); i > 0; --i) {
    SummaryStore store = FoldShard(shards[i - 1], element, limits);
    reversed.MergeFrom(store, remap);
  }
  check = CheckSummaryEquivalence(sequential, reversed, alphabet);
  if (!check.passed) {
    return OracleResult::Fail("commuted merge != sequential fold: " +
                              check.detail);
  }
  return OracleResult::Pass();
}

namespace {

/// Feeds `documents` to `add`, each clean document followed by its
/// broken counterpart (if any). Every clean document must fold and
/// every broken one must be rejected.
OracleResult FoldSequence(const std::string& label,
                          const std::vector<std::string>& documents,
                          const std::vector<std::string>& broken,
                          const std::function<Status(std::string_view)>& add) {
  for (size_t d = 0; d < documents.size(); ++d) {
    Status status = add(documents[d]);
    if (!status.ok()) {
      return OracleResult::Fail(label + " ingestion failed: " +
                                status.ToString());
    }
    if (d < broken.size() && !broken[d].empty() && add(broken[d]).ok()) {
      return OracleResult::Fail(label + " accepted a broken document "
                                "meant to test rollback");
    }
  }
  return OracleResult::Pass();
}

/// Runs documents [first, end), each followed by its broken counterpart
/// (if any), through a one-job IngestEngine that first loads the
/// reference fold's state over the clean documents [0, first). Every
/// broken document must be reported at its submission index, and the
/// SaveState text must equal `want_state`.
OracleResult CheckOneJobEngine(const std::vector<std::string>& documents,
                               const std::vector<std::string>& broken,
                               const InferenceOptions& options, size_t first,
                               const std::string& want_state) {
  const std::string label =
      first == 0 ? std::string("IngestEngine (jobs=1)")
                 : "IngestEngine (jobs=1, state of the first " +
                       std::to_string(first) + " documents loaded)";
  IngestEngine::Options engine_options;
  engine_options.inference = options;
  IngestEngine engine(engine_options);
  if (first > 0) {
    DtdInferrer prefix(options);
    for (size_t d = 0; d < first; ++d) {
      Status status = ReferenceFoldXml(documents[d], &prefix);
      if (!status.ok()) {
        return OracleResult::Fail("reference-fold ingestion failed: " +
                                  status.ToString());
      }
    }
    Status loaded = engine.LoadState(prefix.SaveState());
    if (!loaded.ok()) {
      return OracleResult::Fail(label + " LoadState failed: " +
                                loaded.ToString());
    }
  }
  std::string want_errors;
  for (size_t d = first; d < documents.size(); ++d) {
    engine.AddXml(documents[d]);
    if (d < broken.size() && !broken[d].empty()) {
      want_errors += ' ';
      want_errors += std::to_string(engine.documents_added());
      engine.AddXml(broken[d]);
    }
  }
  (void)engine.Finish();  // fails exactly when a broken document ran
  std::string got_errors;
  for (const IngestEngine::DocumentError& error : engine.errors()) {
    got_errors += ' ';
    got_errors += std::to_string(error.doc_index);
  }
  if (got_errors != want_errors) {
    return OracleResult::Fail(label + " reported failed documents [" +
                              got_errors + " ], expected [" + want_errors +
                              " ]");
  }
  const std::string state = engine.inferrer().SaveState();
  if (state != want_state) {
    return OracleResult::Fail(label +
                              " SaveState differs from the reference "
                              "fold's:\n" +
                              state + "vs\n" + want_state);
  }
  return OracleResult::Pass();
}

}  // namespace

OracleResult CheckIngestionEquivalence(
    const std::vector<std::string>& documents,
    const std::vector<std::string>& broken_documents,
    const InferenceOptions& options, int jobs) {
  DtdInferrer reference(options);
  OracleResult run = FoldSequence(
      "reference-fold", documents, broken_documents,
      [&](std::string_view xml) { return ReferenceFoldXml(xml, &reference); });
  if (!run.passed) return run;

  DtdInferrer streaming(options);
  {
    StreamingFolder folder(&streaming);
    run = FoldSequence(
        "streaming", documents, broken_documents,
        [&](std::string_view xml) { return folder.AddXml(xml); });
    if (!run.passed) return run;
  }
  const std::string streaming_state = streaming.SaveState();
  const std::string reference_state = reference.SaveState();
  if (streaming_state != reference_state) {
    return OracleResult::Fail(
        "streaming SaveState differs from the reference fold's "
        "(supports, datatype masks or symbol numbering; with broken "
        "documents interleaved, a rollback residue shows here too):\n" +
        streaming_state + "vs\n" + reference_state);
  }

  // The batch engine at one job (the CLI's default and serve
  // recovery's) folds to the same bytes, also with a prefix's state
  // loaded ahead of the remaining documents.
  for (size_t first : {size_t{0}, documents.size() / 2}) {
    run = CheckOneJobEngine(documents, broken_documents, options, first,
                            reference_state);
    if (!run.passed) return run;
  }

  Result<Dtd> reference_dtd = reference.InferDtd();
  if (!reference_dtd.ok()) {
    return OracleResult::Fail("reference inference failed: " +
                              reference_dtd.status().ToString());
  }
  std::string reference_text =
      WriteDtd(reference_dtd.value(), *reference.alphabet());

  IngestEngine::Options engine_options;
  engine_options.inference = options;
  // One document per batch, so that the shards split the corpus.
  engine_options.inference.batch_docs = 1;
  engine_options.jobs = jobs;
  IngestEngine parallel(engine_options);
  for (const std::string& doc : documents) parallel.AddXml(doc);
  Status folded = parallel.Finish();
  if (!folded.ok()) {
    return OracleResult::Fail("parallel ingestion failed: " +
                              folded.ToString());
  }
  const std::string parallel_state = parallel.inferrer().SaveState();
  if (parallel_state != reference_state) {
    return OracleResult::Fail("parallel (jobs=" + std::to_string(jobs) +
                              ") SaveState differs from the reference "
                              "fold's:\n" +
                              parallel_state + "vs\n" + reference_state);
  }
  Result<Dtd> parallel_dtd =
      parallel.inferrer().InferDtd(parallel.infer_threads());
  if (!parallel_dtd.ok()) {
    return OracleResult::Fail("parallel inference failed: " +
                              parallel_dtd.status().ToString());
  }
  std::string parallel_text =
      WriteDtd(parallel_dtd.value(), *parallel.inferrer().alphabet());
  if (parallel_text != reference_text) {
    return OracleResult::Fail("parallel (jobs=" + std::to_string(jobs) +
                              ") DTD differs from the reference fold's:\n" +
                              parallel_text + "vs\n" + reference_text);
  }
  return OracleResult::Pass();
}

namespace {

bool AllDigits(std::string_view text) {
  return !text.empty() &&
         std::all_of(text.begin(), text.end(), [](char c) {
           return std::isdigit(static_cast<unsigned char>(c)) != 0;
         });
}

std::string_view WithoutSign(std::string_view text) {
  if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
    text.remove_prefix(1);
  }
  return text;
}

/// Whether `value` lies in the lexical space of the XML Schema built-in
/// `type` (the heuristic emits a subset of each: no time zones, four-digit
/// years). Written from the XML Schema grammar, apart from the heuristic.
bool InLexicalSpace(std::string_view type, std::string_view value) {
  if (type == "xs:string") return true;
  if (type == "xs:boolean") {
    return value == "true" || value == "false" || value == "0" ||
           value == "1";
  }
  if (type == "xs:integer") return AllDigits(WithoutSign(value));
  if (type == "xs:decimal") {
    std::string_view number = WithoutSign(value);
    size_t dot = number.find('.');
    if (dot == std::string_view::npos) return AllDigits(number);
    std::string_view whole = number.substr(0, dot);
    std::string_view fraction = number.substr(dot + 1);
    return (whole.empty() || AllDigits(whole)) &&
           (fraction.empty() || AllDigits(fraction)) &&
           !(whole.empty() && fraction.empty());
  }
  if (type == "xs:date") {
    if (value.size() != 10 || value[4] != '-' || value[7] != '-' ||
        !AllDigits(value.substr(0, 4)) || !AllDigits(value.substr(5, 2)) ||
        !AllDigits(value.substr(8, 2))) {
      return false;
    }
    auto number = [&](size_t first, size_t length) {
      return std::stoi(std::string(value.substr(first, length)));
    };
    return std::chrono::year_month_day(
               std::chrono::year(number(0, 4)),
               std::chrono::month(static_cast<unsigned>(number(5, 2))),
               std::chrono::day(static_cast<unsigned>(number(8, 2))))
        .ok();
  }
  return false;
}

/// Every element name's declared simple type in `xsd`: the
/// `<xs:element name="N" type="T"/>` lines WriteXsd emits for text-only
/// elements.
std::map<std::string, std::string> DeclaredTypes(const std::string& xsd) {
  std::map<std::string, std::string> types;
  for (const std::string& line : SplitString(xsd, '\n')) {
    const std::string name_key = "<xs:element name=\"";
    const std::string type_key = "\" type=\"";
    size_t name_at = line.find(name_key);
    size_t type_at = line.find(type_key);
    if (name_at == std::string::npos || type_at == std::string::npos) {
      continue;
    }
    name_at += name_key.size();
    size_t type_end = line.find('"', type_at + type_key.size());
    types[line.substr(name_at, type_at - name_at)] = line.substr(
        type_at + type_key.size(), type_end - type_at - type_key.size());
  }
  return types;
}

}  // namespace

OracleResult CheckDatatypes(const std::vector<std::string>& documents,
                            const std::vector<std::string>& rejected,
                            const InferenceOptions& options) {
  // Every element's whitespace-stripped text values, clean documents
  // only. An occurrence without text adds no value, as in the fold.
  std::map<std::string, std::vector<std::string>> values;
  for (const std::string& xml : documents) {
    Result<XmlDocument> doc =
        options.lenient_xml ? ParseXmlLenient(xml) : ParseXml(xml);
    if (!doc.ok()) {
      return OracleResult::Fail("clean document fails to parse: " +
                                doc.status().ToString());
    }
    std::vector<const XmlElement*> pending = {doc->root.get()};
    while (!pending.empty()) {
      const XmlElement* element = pending.back();
      pending.pop_back();
      if (element->HasSignificantText()) {
        values[element->name()].emplace_back(
            StripWhitespace(element->text()));
      }
      for (const auto& child : element->children()) {
        pending.push_back(child.get());
      }
    }
  }

  std::string first_state;
  std::string first_xsd;
  for (int jobs : {1, 2, 7}) {
    const std::string label = "jobs=" + std::to_string(jobs);
    IngestEngine::Options engine_options;
    engine_options.inference = options;
    engine_options.inference.batch_docs = 1;
    engine_options.jobs = jobs;
    IngestEngine engine(engine_options);
    size_t want_errors = 0;
    for (size_t d = 0; d < documents.size(); ++d) {
      engine.AddXml(documents[d]);
      if (d < rejected.size() && !rejected[d].empty()) {
        engine.AddXml(rejected[d]);
        ++want_errors;
      }
    }
    (void)engine.Finish();  // fails exactly when a rejected document ran
    if (engine.errors().size() != want_errors) {
      return OracleResult::Fail(
          label + ": " + std::to_string(engine.errors().size()) +
          " documents failed, expected " + std::to_string(want_errors));
    }
    Result<std::string> xsd = engine.inferrer().InferXsd(jobs);
    if (!xsd.ok()) {
      return OracleResult::Fail(label + ": XSD inference failed: " +
                                xsd.status().ToString());
    }
    const std::string state = engine.inferrer().SaveState();
    if (jobs == 1) {
      first_state = state;
      first_xsd = *xsd;
      continue;
    }
    if (state != first_state) {
      return OracleResult::Fail(label + " saves\n" + state +
                                "but jobs=1 saves\n" + first_state);
    }
    if (*xsd != first_xsd) {
      return OracleResult::Fail(label + " emits\n" + *xsd +
                                "but jobs=1 emits\n" + first_xsd);
    }
  }

  DtdInferrer restored(options);
  Status loaded = restored.LoadState(first_state);
  if (!loaded.ok()) {
    return OracleResult::Fail("the jobs=1 state does not load: " +
                              loaded.ToString());
  }
  Result<std::string> restored_xsd = restored.InferXsd();
  if (!restored_xsd.ok() || *restored_xsd != first_xsd) {
    return OracleResult::Fail(
        "the XSD of the loaded jobs=1 state differs:\n" +
        (restored_xsd.ok() ? *restored_xsd
                           : restored_xsd.status().ToString()) +
        "\nvs\n" + first_xsd);
  }

  for (const auto& [name, type] : DeclaredTypes(first_xsd)) {
    auto it = values.find(name);
    if (it == values.end()) continue;  // never had text
    for (const std::string& value : it->second) {
      if (!InLexicalSpace(type, value)) {
        return OracleResult::Fail("element " + name + " is declared " +
                                  type + " but has the value '" + value +
                                  "'");
      }
    }
    // Exact, not sampled: the types every one of its values satisfies.
    uint8_t types = kAllTextTypes;
    for (const std::string& value : it->second) types &= TextTypes(value);
    const std::string_view exact = SimpleTypeName(types);
    if (type != exact) {
      return OracleResult::Fail("element " + name + " is declared " + type +
                                " but its " +
                                std::to_string(it->second.size()) +
                                " values give " + std::string(exact));
    }
  }
  return OracleResult::Pass();
}

namespace {

/// The `learner` (or the corpus default) learning from a copy of the
/// batch engine's summaries.
Result<std::string> FreshAnswer(const DtdInferrer& batch,
                                const InferenceOptions& options,
                                const std::string& learner, bool xsd) {
  InferenceOptions query = options;
  if (!learner.empty()) query.learner = learner;
  DtdInferrer reader(query);
  reader.MergeFrom(batch);
  if (xsd) return reader.InferXsd();
  Result<Dtd> dtd = reader.InferDtd();
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(*dtd, *reader.alphabet());
}

std::string Render(const Result<std::string>& answer) {
  return answer.ok() ? "OK\n" + *answer
                     : "ERROR " + answer.status().ToString() + "\n";
}

/// A session's SaveState and, per element name, its version and its
/// SaveState fragment (the lines from its `element` line up to the next
/// element or the end).
struct VersionedFragments {
  std::string state;
  std::map<std::string, uint64_t> versions;
  std::map<std::string, std::string> fragments;
};

VersionedFragments Observe(IngestSession* session) {
  VersionedFragments out;
  session->Snapshot(&out.state, nullptr);
  std::string* fragment = nullptr;
  for (const std::string& line : SplitString(out.state, '\n')) {
    if (StartsWith(line, "element ")) {
      fragment = &out.fragments[SplitString(line, ' ')[1]];
    } else if (line == "end") {
      fragment = nullptr;
    }
    if (fragment != nullptr) *fragment += line + "\n";
  }
  Alphabet alphabet;
  SummaryDelta delta;
  session->SnapshotChanged({}, &alphabet, &delta);
  for (const auto& [symbol, version] : delta.versions) {
    out.versions[alphabet.Name(symbol)] = version;
  }
  return out;
}

}  // namespace

OracleResult CheckIncrementalQuery(const std::vector<QueryTraceStep>& steps,
                                   const InferenceOptions& options,
                                   const std::string& data_dir) {
  serve::Corpus::Options corpus_options;
  corpus_options.inference = options;
  corpus_options.data_dir = data_dir;
  corpus_options.fsync_journal = false;
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("oracle", corpus_options);
  if (!corpus.ok()) {
    return OracleResult::Fail("cannot open the corpus: " +
                              corpus.status().ToString());
  }
  auto session = std::make_unique<IngestSession>(options);
  std::vector<std::string> acknowledged;
  IngestEngine::Options engine_options;
  engine_options.inference = options;
  VersionedFragments before;
  for (size_t i = 0; i < steps.size(); ++i) {
    const QueryTraceStep& step = steps[i];
    const std::string where = "step " + std::to_string(i) + ": ";
    if (step.kind == QueryTraceStep::Kind::kIngest) {
      Status served = (*corpus)->Ingest(step.document);
      Status mirrored = session->Ingest(step.document);
      if (served.ok() != mirrored.ok()) {
        return OracleResult::Fail(where + "the corpus says " +
                                  served.ToString() + ", a session " +
                                  mirrored.ToString());
      }
      if (served.ok()) acknowledged.push_back(step.document);
      // The session is looked at only where the corpus's own one is
      // read: its snapshot flushes, and a flush after every INGEST
      // would hide what a rejected document leaves in the dedup cache
      // for later ones.
      continue;
    }
    // The batch engine (one job) over the acknowledged documents.
    IngestEngine engine(engine_options);
    for (const std::string& doc : acknowledged) engine.AddXml(doc);
    Status folded = engine.Finish();
    if (!folded.ok()) {
      return OracleResult::Fail(where + "reference ingestion failed: " +
                                folded.ToString());
    }
    if (step.kind == QueryTraceStep::Kind::kQuery) {
      std::string got = Render((*corpus)->Query(step.learner, step.xsd));
      std::string want = Render(
          FreshAnswer(engine.inferrer(), options, step.learner, step.xsd));
      if (got != want) {
        return OracleResult::Fail(
            where + "QUERY --algorithm=" + step.learner +
            (step.xsd ? " --format=xsd" : " --format=dtd") + " after " +
            std::to_string(acknowledged.size()) + " documents answered\n" +
            got + "but a fresh inference gives\n" + want);
      }
    } else {
      corpus->reset();
      corpus = serve::Corpus::Open("oracle", corpus_options);
      if (!corpus.ok()) {
        return OracleResult::Fail(where + "cannot reopen the corpus: " +
                                  corpus.status().ToString());
      }
      // Recovery's rebuild: the batch engine's summaries merged into a
      // fresh session with fresh versions.
      session = std::make_unique<IngestSession>(options);
      session->MergeFrom(engine.inferrer());
      before = VersionedFragments();
    }
    VersionedFragments after = Observe(session.get());
    const std::string batch_state = engine.inferrer().SaveState();
    if (after.state != batch_state) {
      return OracleResult::Fail(
          where + "after " + std::to_string(acknowledged.size()) +
          " acknowledged documents the session saves\n" + after.state +
          "but IngestEngine over them saves\n" + batch_state);
    }
    for (const auto& [name, version] : after.versions) {
      auto was = before.versions.find(name);
      if (was != before.versions.end() && was->second == version &&
          before.fragments[name] != after.fragments[name]) {
        return OracleResult::Fail(
            where + "element " + name + " kept version " +
            std::to_string(version) + " while its summary changed:\n" +
            before.fragments[name] + "became\n" + after.fragments[name]);
      }
    }
    before = std::move(after);
  }
  return OracleResult::Pass();
}

}  // namespace condtd
