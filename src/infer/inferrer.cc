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
  limits.max_text_samples = options.max_text_samples;
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
  for (const Word& word : words) {
    ++summary.occurrences;
    summary.AddChildWord(word, 1, store_.limits());
    for (Symbol s : word) store_.MarkSeenAsChild(s);
  }
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
  if (learner_ == nullptr) {
    return Status::InvalidArgument(
        "unknown learner '" + options_.learner +
        "' (registered: " +
        LearnerRegistry::Global().NamesForDisplay(", ") + ")");
  }
  obs::StageSpan span(obs::Stage::kLearn);
  Result<ReRef> result = LearnWithMetrics(*learner_, summary, learn_options_);
  if (result.ok()) obs::CounterAdd(obs::Counter::kElementsLearned, 1);
  return result;
}

Result<ContentModel> DtdInferrer::InferContentModel(Symbol element) const {
  const ElementSummary* summary = store_.Find(element);
  if (summary == nullptr) {
    return Status::NotFound("element never observed: " +
                            alphabet_.NameOrPlaceholder(element));
  }
  ContentModel model;
  const bool any_children = summary->crx.num_distinct_histograms() > 0;
  if (!any_children) {
    model.kind =
        summary->has_text ? ContentKind::kPcdataOnly : ContentKind::kEmpty;
    return model;
  }
  if (summary->has_text) {
    // Mixed content: DTDs can only express (#PCDATA | a | b)*.
    model.kind = ContentKind::kMixed;
    for (int q = 0; q < summary->soa.NumStates(); ++q) {
      if (options_.noise_symbol_threshold > 0 &&
          summary->soa.StateSupport(q) < options_.noise_symbol_threshold) {
        continue;
      }
      model.mixed_symbols.push_back(summary->soa.LabelOf(q));
    }
    std::sort(model.mixed_symbols.begin(), model.mixed_symbols.end());
    return model;
  }
  Result<ReRef> re = LearnRegex(*summary);
  if (!re.ok()) return re.status();
  model.kind = ContentKind::kChildren;
  model.regex = re.value();
  // Elements that sometimes appear empty need a nullable model; the
  // learners already account for it (the ε word is part of the SOA and
  // of the CRX histograms), so this is just a sanity fallback.
  if (summary->soa.accepts_empty() && !Nullable(model.regex)) {
    model.regex = Re::Opt(model.regex);
  }
  return model;
}

Result<Dtd> DtdInferrer::InferDtd(int num_threads) const {
  if (store_.empty()) {
    return Status::FailedPrecondition("no documents have been added");
  }
  Dtd dtd;
  // Root: prefer the observed document root(s); with direct AddWords
  // usage, fall back to an element never seen as a child.
  if (!store_.root_counts().empty()) {
    int64_t best = -1;
    for (const auto& [symbol, count] : store_.root_counts()) {
      if (count > best) {
        best = count;
        dtd.root = symbol;
      }
    }
  } else {
    for (const auto& [symbol, summary] : store_.elements()) {
      if (!store_.SeenAsChild(symbol)) {
        dtd.root = symbol;
        break;
      }
    }
    if (dtd.root == kInvalidSymbol) {
      dtd.root = store_.elements().begin()->first;
    }
  }
  // Per-element learner calls are fully independent (pure reads of this
  // inferrer), so they fan out across threads; results are collected by
  // index and assembled in ascending-symbol order, making the DTD — and
  // which error wins when several elements fail — identical to the
  // sequential run.
  std::vector<Symbol> symbols = Elements();
  std::vector<Result<ContentModel>> models(
      symbols.size(), Result<ContentModel>(Status::Internal("unset")));
  int jobs = std::clamp(num_threads, 1, static_cast<int>(symbols.size()));
  if (jobs > 1) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (int t = 0; t < jobs; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < symbols.size();
             i = next.fetch_add(1)) {
          models[i] = InferContentModel(symbols[i]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < symbols.size(); ++i) {
      models[i] = InferContentModel(symbols[i]);
    }
  }
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (!models[i].ok()) return models[i].status();
    dtd.elements[symbols[i]] = std::move(models[i].value());
  }
  if (options_.infer_attributes) {
    for (const auto& [symbol, summary] : store_.elements()) {
      for (const auto& [name, count] : summary.attribute_counts) {
        Dtd::AttributeDef def;
        def.name = name;
        def.type = "CDATA";
        def.default_decl =
            count == summary.occurrences ? "#REQUIRED" : "#IMPLIED";
        dtd.attributes[symbol].push_back(std::move(def));
      }
    }
  }
  return dtd;
}

std::string DtdInferrer::SaveState() const { return store_.Save(alphabet_); }

Status DtdInferrer::LoadState(std::string_view serialized) {
  return store_.Load(serialized, &alphabet_);
}

Result<std::string> DtdInferrer::InferXsd(bool numeric_predicates,
                                          int num_threads) const {
  Result<Dtd> dtd = InferDtd(num_threads);
  if (!dtd.ok()) return dtd.status();
  std::map<Symbol, XsdElementExtras> extras;
  for (const auto& [symbol, summary] : store_.elements()) {
    XsdElementExtras extra;
    if (numeric_predicates) {
      auto model = dtd.value().elements.find(symbol);
      if (model != dtd.value().elements.end() &&
          model->second.kind == ContentKind::kChildren) {
        extra.numeric = AnnotateNumericFromHistograms(
            model->second.regex, summary.crx.histograms(),
            summary.crx.empty_count());
      }
    }
    if (summary.has_text) {
      extra.text_type = InferSimpleType(summary.text_samples);
    }
    extras[symbol] = std::move(extra);
  }
  obs::StageSpan span(obs::Stage::kEmit);
  return WriteXsd(dtd.value(), alphabet_, extras);
}

}  // namespace condtd
