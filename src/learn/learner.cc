#include "learn/learner.h"

#include <chrono>
#include <utility>

#include "baseline/trang_like.h"
#include "crx/crx.h"
#include "gfa/rewrite.h"
#include "learn/interleave.h"
#include "obs/metrics.h"

namespace condtd {

namespace {

class IdtdLearner : public Learner {
 public:
  std::string_view name() const override { return "idtd"; }
  std::string_view description() const override {
    return "Algorithm 2: SOA rewrite with repair rules (SORE output)";
  }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    IdtdOptions idtd_options = options.idtd;
    if (options.noise_symbol_threshold > 0 &&
        idtd_options.noise_symbol_threshold == 0) {
      idtd_options.noise_symbol_threshold = options.noise_symbol_threshold;
    }
    return IdtdFromSoa(summary.soa, idtd_options);
  }
};

class CrxLearner : public Learner {
 public:
  std::string_view name() const override { return "crx"; }
  std::string_view description() const override {
    return "Algorithm 3: direct CHARE extraction from histograms";
  }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    return summary.crx.Infer(summary.soa, options.noise_symbol_threshold);
  }
};

class AutoLearner : public Learner {
 public:
  std::string_view name() const override { return "auto"; }
  std::string_view description() const override {
    return "iDTD on data-rich elements, CRX on sparse ones (the paper's "
           "recommendation)";
  }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    AutoPolicy policy(options.auto_idtd_min_words);
    // Route through the metrics wrapper so the stats report shows which
    // inner learner handled the element, not just the "auto" call.
    return LearnWithMetrics(policy.Pick(summary), summary, options);
  }
};

class RewriteLearner : public Learner {
 public:
  std::string_view name() const override { return "rewrite"; }
  std::string_view description() const override {
    return "plain Algorithm 1 (fails on non-representative data)";
  }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions&) const override {
    return RewriteSoaToSore(summary.soa);
  }
};

class TrangLearner : public Learner {
 public:
  std::string_view name() const override { return "trang"; }
  std::string_view description() const override {
    return "Section 8.1 baseline: SCC-collapsed SOA linearization";
  }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions&) const override {
    return TrangLikeFromSoa(summary.soa);
  }
};

class XtractLearner : public Learner {
 public:
  std::string_view name() const override { return "xtract"; }
  std::string_view description() const override {
    return "Section 8.2 baseline: XTRACT generalize/factor/MDL (bounded "
           "retained-word sample)";
  }
  bool needs_full_words() const override { return true; }
  Result<ReRef> Learn(const ElementSummary& summary,
                      const LearnOptions& options) const override {
    if (!summary.words_complete) {
      return Status::FailedPrecondition(
          "xtract needs the retained-word reservoir, which this summary "
          "does not carry (it was folded for a summary-only learner or "
          "loaded from a version-1 state file)");
    }
    if (summary.words_overflowed) {
      return Status::ResourceExhausted(
          "XTRACT: the element's distinct child sequences overflowed the "
          "retained-word reservoir, exceeding the feasible limit of " +
          std::to_string(options.xtract.max_strings) +
          " (the original system exhausts memory on such inputs)");
    }
    std::vector<Word> sample(summary.retained_words.begin(),
                             summary.retained_words.end());
    return XtractInfer(sample, options.xtract);
  }
};

}  // namespace

Result<ReRef> LearnWithMetrics(const Learner& learner,
                               const ElementSummary& summary,
                               const LearnOptions& options) {
  if (!obs::StatsEnabled()) return learner.Learn(summary, options);
  int slot = obs::LearnerSlot(learner.name());
  auto start = std::chrono::steady_clock::now();
  Result<ReRef> result = learner.Learn(summary, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  obs::LearnerRecord(slot, elapsed, result.ok());
  return result;
}

const Learner& AutoPolicy::Pick(const ElementSummary& summary) const {
  const LearnerRegistry& registry = LearnerRegistry::Global();
  const Learner* picked = registry.Find(
      summary.occurrences >= idtd_min_words_ ? "idtd" : "crx");
  return *picked;  // built-ins are always registered
}

LearnerRegistry& LearnerRegistry::Global() {
  static LearnerRegistry* registry = [] {
    auto* r = new LearnerRegistry();
    // Registration order is the display order: engine algorithms first,
    // Section 8 baselines last.
    r->Register(std::make_unique<AutoLearner>());
    r->Register(std::make_unique<IdtdLearner>());
    r->Register(std::make_unique<CrxLearner>());
    r->Register(MakeIsoreLearner());
    r->Register(MakeSireLearner());
    r->Register(std::make_unique<RewriteLearner>());
    r->Register(std::make_unique<TrangLearner>());
    r->Register(std::make_unique<XtractLearner>());
    return r;
  }();
  return *registry;
}

Status LearnerRegistry::Register(std::unique_ptr<Learner> learner) {
  if (Find(learner->name()) != nullptr) {
    return Status::InvalidArgument("learner '" +
                                   std::string(learner->name()) +
                                   "' is already registered");
  }
  learners_.push_back(std::move(learner));
  return Status::OK();
}

const Learner* LearnerRegistry::Find(std::string_view name) const {
  for (const std::unique_ptr<Learner>& learner : learners_) {
    if (learner->name() == name) return learner.get();
  }
  return nullptr;
}

std::vector<const Learner*> LearnerRegistry::All() const {
  std::vector<const Learner*> out;
  out.reserve(learners_.size());
  for (const std::unique_ptr<Learner>& learner : learners_) {
    out.push_back(learner.get());
  }
  return out;
}

std::string LearnerRegistry::NamesForDisplay(const char* separator) const {
  std::string out;
  for (const std::unique_ptr<Learner>& learner : learners_) {
    if (!out.empty()) out += separator;
    out += learner->name();
  }
  return out;
}

Status LearnerRegistry::UnknownName(std::string_view name) const {
  return Status::InvalidArgument("unknown learner '" + std::string(name) +
                                 "' (registered: " + NamesForDisplay(", ") +
                                 ")");
}

}  // namespace condtd
