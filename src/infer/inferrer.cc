#include "infer/inferrer.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "infer/streaming.h"
#include "obs/metrics.h"
#include "regex/properties.h"
#include "xsd/numeric.h"

namespace condtd {

namespace {

LearnOptions MakeLearnOptions(const InferenceOptions& options) {
  LearnOptions out;
  out.noise_symbol_threshold = options.noise_symbol_threshold;
  out.auto_idtd_min_words = options.auto_idtd_min_words;
  out.idtd = options.idtd;
  out.xtract = options.xtract;
  return out;
}

SummaryLimits MakeLimits(const InferenceOptions& options,
                         const Learner* learner) {
  SummaryLimits limits;
  // Reservoir headroom: max_strings + 2 keeps the ε word plus exactly
  // enough non-empty words for XtractInfer to report its own documented
  // over-budget failure; anything beyond trips the overflow flag.
  limits.max_retained_words =
      learner != nullptr && learner->needs_full_words()
          ? options.xtract.max_strings + 2
          : 0;
  return limits;
}

}  // namespace

DtdInferrer::DtdInferrer(InferenceOptions options)
    : options_(std::move(options)),
      learn_options_(MakeLearnOptions(options_)),
      learner_(LearnerRegistry::Global().Find(options_.learner)),
      store_(MakeLimits(options_, learner_)) {}

Status DtdInferrer::AddXml(std::string_view xml) {
  StreamingFolder folder(this);  // flushes on destruction
  return folder.AddXml(xml);
}

void DtdInferrer::AddWords(Symbol element, const std::vector<Word>& words) {
  ElementSummary& summary = store_.Ensure(element);
  FoldTally tally;
  for (const Word& word : words) {
    ++summary.occurrences;
    summary.AddChildWord(word, 1, store_.limits());
    tally.Count(word, 1);
    for (Symbol s : word) store_.MarkSeenAsChild(s);
  }
  tally.Publish();
}

void DtdInferrer::MergeFrom(const DtdInferrer& other) {
  // Translate other's symbol ids into ours, interning names as needed.
  std::vector<Symbol> remap(other.alphabet_.size());
  for (Symbol s = 0; s < static_cast<Symbol>(remap.size()); ++s) {
    remap[s] = alphabet_.Intern(other.alphabet_.Name(s));
  }
  store_.MergeFrom(other.store_, remap);
}

int64_t DtdInferrer::WordCount(Symbol element) const {
  const ElementSummary* summary = store_.Find(element);
  return summary == nullptr ? 0 : summary->occurrences;
}

std::vector<Symbol> DtdInferrer::Elements() const {
  std::vector<Symbol> out;
  out.reserve(store_.elements().size());
  for (const auto& [symbol, summary] : store_.elements()) {
    out.push_back(symbol);
  }
  return out;
}

Result<ReRef> DtdInferrer::LearnRegex(const ElementSummary& summary) const {
  obs::StageSpan span(obs::Stage::kLearn);
  Result<ReRef> result = LearnWithMetrics(*learner_, summary, learn_options_);
  if (result.ok()) obs::CounterAdd(obs::Counter::kElementsLearned, 1);
  return result;
}

std::vector<Dtd::AttributeDef> AttributeDefs(
    const std::map<std::string, int64_t, std::less<>>& counts,
    int64_t occurrences) {
  std::vector<Dtd::AttributeDef> defs;
  defs.reserve(counts.size());
  for (const auto& [name, count] : counts) {
    Dtd::AttributeDef def;
    def.name = name;
    def.type = "CDATA";
    def.default_decl = count == occurrences ? "#REQUIRED" : "#IMPLIED";
    defs.push_back(std::move(def));
  }
  return defs;
}

Result<ContentModel> DtdInferrer::InferContentModel(Symbol element) const {
  const ElementSummary* summary = store_.Find(element);
  if (summary == nullptr) {
    return Status::NotFound("element never observed: " +
                            alphabet_.NameOrPlaceholder(element));
  }
  return LearnContentModel(*summary);
}

Result<ContentModel> DtdInferrer::LearnContentModel(
    const ElementSummary& summary) const {
  // An unknown learner fails every element, also those whose content
  // (EMPTY, #PCDATA, mixed) needs no learner.
  if (learner_ == nullptr) {
    return LearnerRegistry::Global().UnknownName(options_.learner);
  }
  ContentModel model;
  const bool any_children = summary.crx.num_distinct_histograms() > 0;
  if (!any_children) {
    model.kind =
        summary.has_text ? ContentKind::kPcdataOnly : ContentKind::kEmpty;
    return model;
  }
  if (summary.has_text) {
    // Mixed content: DTDs can only express (#PCDATA | a | b)*.
    model.kind = ContentKind::kMixed;
    for (int q = 0; q < summary.soa.NumStates(); ++q) {
      if (options_.noise_symbol_threshold > 0 &&
          summary.soa.StateSupport(q) < options_.noise_symbol_threshold) {
        continue;
      }
      model.mixed_symbols.push_back(summary.soa.LabelOf(q));
    }
    std::sort(model.mixed_symbols.begin(), model.mixed_symbols.end());
    return model;
  }
  Result<ReRef> re = LearnRegex(summary);
  if (!re.ok()) return re.status();
  model.kind = ContentKind::kChildren;
  model.regex = re.value();
  // Elements that sometimes appear empty need a nullable model; the
  // learners already account for it (the ε word is part of the SOA and
  // of the CRX histograms), so this is just a sanity fallback.
  if (summary.soa.accepts_empty() && !Nullable(model.regex)) {
    model.regex = Re::Opt(model.regex);
  }
  return model;
}

ElementSchema DtdInferrer::InferElement(const ElementSummary& summary,
                                        bool xsd) const {
  ElementSchema schema;
  schema.model = LearnContentModel(summary);
  if (options_.infer_attributes) {
    schema.attributes =
        AttributeDefs(summary.attribute_counts, summary.occurrences);
  }
  if (xsd && schema.model.ok()) {
    // The bounds are keyed by the model's RE nodes, which the assembled
    // DTD shares.
    if (schema.model->kind == ContentKind::kChildren) {
      schema.xsd.numeric =
          AnnotateNumericFromHistograms(schema.model->regex, summary.crx);
    }
    if (summary.has_text) {
      schema.xsd.text_type = SimpleTypeName(summary.text_types);
    }
  }
  return schema;
}

std::vector<ElementSchema> DtdInferrer::InferElements(bool xsd,
                                                      int num_threads) const {
  // Per-element learner calls are fully independent (pure reads of this
  // inferrer), so they fan out across threads; results are collected by
  // index, so the assembled schema does not depend on the thread count.
  std::vector<const ElementSummary*> summaries;
  summaries.reserve(store_.elements().size());
  for (const auto& [symbol, summary] : store_.elements()) {
    summaries.push_back(&summary);
  }
  std::vector<ElementSchema> schemas(summaries.size());
  int jobs = std::min(std::max(num_threads, 1),
                      static_cast<int>(summaries.size()));
  if (jobs > 1) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (int t = 0; t < jobs; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < summaries.size();
             i = next.fetch_add(1)) {
          schemas[i] = InferElement(*summaries[i], xsd);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < summaries.size(); ++i) {
      schemas[i] = InferElement(*summaries[i], xsd);
    }
  }
  return schemas;
}

std::vector<ElementSchemaRef> DtdInferrer::Refs(
    const std::vector<ElementSchema>& schemas) const {
  std::vector<ElementSchemaRef> refs;
  refs.reserve(schemas.size());
  size_t i = 0;
  for (const auto& [symbol, summary] : store_.elements()) {
    refs.emplace_back(symbol, &schemas[i++]);
  }
  return refs;
}

Result<Dtd> DtdInferrer::InferDtd(int num_threads) const {
  std::vector<ElementSchema> schemas =
      InferElements(/*xsd=*/false, num_threads);
  return AssembleDtd(store_.Root(), Refs(schemas));
}

Result<std::string> DtdInferrer::InferXsd(int num_threads) const {
  std::vector<ElementSchema> schemas =
      InferElements(/*xsd=*/true, num_threads);
  return AssembleXsd(store_.Root(), Refs(schemas), alphabet_);
}

Result<Dtd> DtdInferrer::AssembleDtd(
    Symbol root, const std::vector<ElementSchemaRef>& elements) {
  if (elements.empty()) {
    return Status::FailedPrecondition("no documents have been added");
  }
  Dtd dtd;
  dtd.root = root;
  for (const auto& [symbol, schema] : elements) {
    if (!schema->model.ok()) return schema->model.status();
    dtd.elements.emplace_hint(dtd.elements.end(), symbol, *schema->model);
  }
  for (const auto& [symbol, schema] : elements) {
    if (!schema->attributes.empty()) {
      dtd.attributes.emplace_hint(dtd.attributes.end(), symbol,
                                  schema->attributes);
    }
  }
  return dtd;
}

Result<std::string> DtdInferrer::AssembleXsd(
    Symbol root, const std::vector<ElementSchemaRef>& elements,
    const Alphabet& alphabet) {
  Result<Dtd> dtd = AssembleDtd(root, elements);
  if (!dtd.ok()) return dtd.status();
  std::map<Symbol, XsdElementExtras> extras;
  for (const auto& [symbol, schema] : elements) {
    extras.emplace_hint(extras.end(), symbol, schema->xsd);
  }
  obs::StageSpan span(obs::Stage::kEmit);
  return WriteXsd(*dtd, alphabet, extras);
}

std::string DtdInferrer::SaveState() const { return store_.Save(alphabet_); }

Status DtdInferrer::LoadState(std::string_view serialized) {
  return store_.Load(serialized, &alphabet_);
}

}  // namespace condtd
