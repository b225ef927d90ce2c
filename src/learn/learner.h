#ifndef CONDTD_LEARN_LEARNER_H_
#define CONDTD_LEARN_LEARNER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "baseline/xtract.h"
#include "idtd/idtd.h"
#include "infer/summary.h"
#include "regex/ast.h"

namespace condtd {

/// Knobs forwarded to the per-element learners. This is the learner-side
/// slice of InferenceOptions; the engines build it once and pass it to
/// every Learn call.
struct LearnOptions {
  /// Section 9 noise handling: element names supported by fewer than
  /// this many occurrences are dropped from content models (0 = off).
  int noise_symbol_threshold = 0;
  /// AutoPolicy threshold: elements with at least this many observed
  /// words go through iDTD, sparser ones through CRX.
  int auto_idtd_min_words = 100;
  IdtdOptions idtd;
  XtractOptions xtract;
};

/// One content-model inference algorithm, pluggable per element: given
/// the retained ElementSummary, produce a regular expression over the
/// element's children. Implementations must be stateless (a single
/// registered instance serves every engine and thread concurrently).
///
/// Mixed-content / EMPTY / #PCDATA classification is NOT the learner's
/// job — the engines resolve those from the summary before dispatching,
/// so Learn only ever sees elements with at least one non-trivial child
/// word.
class Learner {
 public:
  virtual ~Learner() = default;

  /// Registry key and CLI `--algorithm=` spelling.
  virtual std::string_view name() const = 0;
  /// One-line description for listings.
  virtual std::string_view description() const = 0;
  /// Capability bit: true when the learner consumes the summary's
  /// distinct-word reservoir rather than the SOA/CRX summaries. Engines
  /// check this at construction to enable reservoir collection.
  virtual bool needs_full_words() const { return false; }

  virtual Result<ReRef> Learn(const ElementSummary& summary,
                              const LearnOptions& options) const = 0;
};

/// Runs `learner.Learn(...)` and records the call in the observability
/// registry under the learner's name (call count, failure count, wall
/// time — see src/obs/metrics.h). Composite learners route their inner
/// picks through this too, so an `auto` run shows both the outer "auto"
/// call and the "idtd"/"crx" call it delegated to. When stats are
/// disabled (runtime flag off or CONDTD_NO_STATS build) this is exactly
/// a Learn call.
Result<ReRef> LearnWithMetrics(const Learner& learner,
                               const ElementSummary& summary,
                               const LearnOptions& options);

/// The paper's two-regime recommendation (Section 8 discussion), as an
/// object so callers can reuse or replace the policy: iDTD when the
/// element has plenty of data (specialization), CRX when data is sparse
/// (generalization).
class AutoPolicy {
 public:
  explicit AutoPolicy(int idtd_min_words) : idtd_min_words_(idtd_min_words) {}

  /// The learner to run for `summary` ("idtd" or "crx").
  const Learner& Pick(const ElementSummary& summary) const;

 private:
  int idtd_min_words_;
};

/// Name-keyed registry of learners. The built-in algorithms (auto, crx,
/// idtd, rewrite, trang, xtract) are registered on first access; callers
/// may add their own with Register. Lookups after startup are read-only
/// and safe from any thread; Register is not synchronized and belongs in
/// initialization code.
class LearnerRegistry {
 public:
  /// The process-wide registry with the built-ins installed.
  static LearnerRegistry& Global();

  /// Adds a learner; fails if the name is already taken.
  Status Register(std::unique_ptr<Learner> learner);

  /// Returns the learner registered under `name`, or null.
  const Learner* Find(std::string_view name) const;

  /// All learners in registration order (stable, built-ins first).
  std::vector<const Learner*> All() const;

  /// Registered names joined by `separator` — for usage strings and
  /// unknown-name errors.
  std::string NamesForDisplay(const char* separator) const;

  /// The InvalidArgument status for a `name` no learner is registered
  /// under, listing the registered names.
  Status UnknownName(std::string_view name) const;

 private:
  std::vector<std::unique_ptr<Learner>> learners_;
};

}  // namespace condtd

#endif  // CONDTD_LEARN_LEARNER_H_
