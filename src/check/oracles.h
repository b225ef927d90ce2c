#ifndef CONDTD_CHECK_ORACLES_H_
#define CONDTD_CHECK_ORACLES_H_

#include <string>
#include <vector>

#include "alphabet/alphabet.h"
#include "automaton/soa.h"
#include "dtd/model.h"
#include "infer/inferrer.h"
#include "infer/summary.h"
#include "regex/ast.h"

namespace condtd {

/// Outcome of one conformance oracle: pass, or fail with a
/// human-readable witness (counterexample word, mismatching field, ...).
/// Oracles are the reusable invariant checks behind the property-test
/// harness (tests/property_test.cc) and are deliberately independent of
/// any test framework so experiments and tools can call them too.
struct OracleResult {
  bool passed = true;
  std::string detail;

  static OracleResult Pass() { return {}; }
  static OracleResult Fail(std::string detail) {
    return {false, std::move(detail)};
  }
};

/// Every sample word must be accepted by the inferred expression — the
/// common soundness guarantee of all learners (Theorems 2 and 3: the
/// inferred expression's language contains the sample).
OracleResult CheckSampleInclusion(const ReRef& inferred,
                                  const std::vector<Word>& sample,
                                  const Alphabet& alphabet);

/// The XML specification requires content models to be one-unambiguous
/// (Brüggemann-Klein & Wood determinism); every SORE is deterministic by
/// construction (Section 1.2).
OracleResult CheckDeterminism(const ReRef& re, const Alphabet& alphabet);

/// Syntactic class checks (Section 1.2 definitions).
OracleResult CheckSoreValidity(const ReRef& re, const Alphabet& alphabet);
OracleResult CheckChareValidity(const ReRef& re, const Alphabet& alphabet);

/// Restricted SIRE class of the interleaving learners: a plain SORE, or
/// a top-level `&` whose factors are `&`-free SOREs (single occurrence
/// holds globally, so factor alphabets are disjoint by construction).
OracleResult CheckSireValidity(const ReRef& re, const Alphabet& alphabet);

/// Conciseness dominance of the interleaving learners: the candidate
/// must be no larger (token count) than the baseline inferred from the
/// same summary AND describe a sub-language of it — the shuffle upgrade
/// specializes the baseline, never generalizes beyond it. The witness on
/// failure is either the token counts or a word of
/// L(candidate) \ L(baseline).
OracleResult CheckConcisenessDominance(const ReRef& candidate,
                                       const ReRef& baseline,
                                       const Alphabet& alphabet);

/// Exact language containment L(sub) ⊆ L(super) with a shortest
/// counterexample word on failure (the Theorem 2 guarantee, checked at
/// the language level).
OracleResult CheckLanguageInclusion(const ReRef& sub, const ReRef& super,
                                    const Alphabet& alphabet);

/// Exact language equality with a shortest distinguishing word on
/// failure.
OracleResult CheckLanguageEquivalence(const ReRef& a, const ReRef& b,
                                      const Alphabet& alphabet);

/// Theorem 1: rewriting a SORE-definable SOA yields an expression with
/// exactly the SOA's language. Checked as L(re) = L(soa) via the DFA
/// product, with a shortest distinguishing word on failure.
OracleResult CheckSoaEquivalence(const ReRef& re, const Soa& soa,
                                 const Alphabet& alphabet);

/// Write → parse round trip: serializing `dtd` with WriteDtd and
/// re-parsing the text must reproduce the root, every content model
/// (structurally, up to commutativity of |) and every attribute list.
OracleResult CheckDtdRoundTrip(const Dtd& dtd, const Alphabet& alphabet);

/// Semantic equality of two summary stores built over the SAME alphabet:
/// root counts, seen-as-child marks, and per element the occurrence and
/// attribute counts, the text datatype mask, the SOA (structure and
/// supports, compared by symbol label so state numbering does not
/// matter), the CRX summaries and the word reservoir. Word reservoirs
/// are compared only when neither side overflowed (an overflowed
/// reservoir's content is arrival-order dependent and learners refuse it
/// anyway).
OracleResult CheckSummaryEquivalence(const SummaryStore& a,
                                     const SummaryStore& b,
                                     const Alphabet& alphabet);

/// Merge-algebra laws of Section 9's incremental computation: folding
/// `shards` of child words for `element` shard-by-shard and merging the
/// stores — left fold, right fold, and reversed (commuted) order — must
/// all agree with the sequential fold of the concatenated shards.
OracleResult CheckMergeLaws(const std::vector<std::vector<Word>>& shards,
                            Symbol element, const Alphabet& alphabet,
                            const SummaryLimits& limits);

/// Ingestion-path equivalence against the reference fold
/// (check/reference_fold.h), on the same documents:
///  * the sequential streaming fold (one StreamingFolder with its flat
///    dedup cache) must reach byte-identical SaveState text — which
///    exposes every support count and every text datatype mask, so it
///    is stronger than comparing DTDs;
///  * rollback leaves no residue: `broken_documents` runs parallel to
///    `documents` (empty entries are skipped), entry d is interleaved
///    after clean document d, and both folds must reject it. The
///    reference rejects at parse time, so the streaming fold, which
///    rolls back a half-folded document, must still end in the clean
///    state. For this to hold byte for byte each broken entry must be a
///    truncation of its clean document: the streaming fold keeps the
///    names a rejected document interned (the reference parses first
///    and interns none), a new name shifts the symbol ids that order
///    SaveState's lists, and a truncation reaches only names its own
///    clean document interned first;
///  * IngestEngine at one job must reach the same SaveState text twice:
///    with the broken documents interleaved, each reported in errors()
///    at its submission index, and with the reference fold's state over
///    the first half of the documents loaded ahead of the rest;
///  * IngestEngine with `jobs` threads, one document per batch, must
///    reach the same SaveState text and DTD over the clean documents.
///    Save lists SOA states in symbol-id order, so the sharded fold's
///    other state numbering does not show; a word reservoir that
///    overflows would (pass options whose learner keeps none, or one
///    that cannot overflow).
OracleResult CheckIngestionEquivalence(
    const std::vector<std::string>& documents,
    const std::vector<std::string>& broken_documents,
    const InferenceOptions& options, int jobs);

/// XSD datatypes over a corpus whose values may break an element's early
/// type late. `rejected` runs parallel to `documents` like
/// CheckIngestionEquivalence's `broken_documents`; each non-empty entry
/// must fail to parse and must count for nothing. IngestEngine at jobs
/// 1, 2 and 7, one document per batch, must save byte-identical states
/// and emit byte-identical XSDs, and so must a fresh inferrer that
/// loads the jobs-1 state. Per element the XSD declares a simple type
/// for:
///  * every text value of the clean documents must lie in that type's
///    XML Schema lexical space (checked here, not by the heuristic);
///  * the type must be SimpleTypeName of the AND of TextTypes over all
///    of those values, not over a sample of them.
/// Only occurrences with significant text give values. An occurrence
/// without text is left out, as the fold leaves it out, although an
/// empty `<v/>` lies outside xs:boolean, xs:integer, xs:decimal and
/// xs:date; so on a corpus with text on only some occurrences this
/// checks the declared type against the text values alone (the open
/// note under ROADMAP item 2).
OracleResult CheckDatatypes(const std::vector<std::string>& documents,
                            const std::vector<std::string>& rejected,
                            const InferenceOptions& options);

/// One operation of an incremental-query trace (CheckIncrementalQuery).
struct QueryTraceStep {
  enum class Kind { kIngest, kQuery, kReopen };
  Kind kind = Kind::kIngest;
  /// kIngest: the document; a malformed one must be refused.
  std::string document;
  /// kQuery: the learner override ("" = the corpus default) and format.
  std::string learner;
  bool xsd = false;
};

/// The serve daemon's incremental QUERY against a fresh inference. A
/// durable serve::Corpus in `data_dir` (an empty directory) runs
/// `steps`: INGESTs, QUERYs and reopenings of the corpus from its data
/// dir. Every QUERY answer, error status included, must byte-equal
/// IngestEngine over the acknowledged documents followed by
/// InferDtd/InferXsd, with the queried learner learning from a copy of
/// the engine's summaries (what QUERY did before it kept a memo).
/// Alongside, an IngestSession fed the same steps — and rebuilt at each
/// reopening the way recovery rebuilds the corpus — must save, at every
/// QUERY and reopening, the state IngestEngine saves over the
/// acknowledged documents (rejected documents leave nothing behind),
/// and keep the version contract: an element whose SummaryStore version
/// did not move since the previous such step has the same SaveState
/// fragment as before.
OracleResult CheckIncrementalQuery(const std::vector<QueryTraceStep>& steps,
                                   const InferenceOptions& options,
                                   const std::string& data_dir);

}  // namespace condtd

#endif  // CONDTD_CHECK_ORACLES_H_
