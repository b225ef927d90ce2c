#ifndef CONDTD_INFER_INFERRER_H_
#define CONDTD_INFER_INFERRER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "base/status.h"
#include "dtd/model.h"
#include "infer/summary.h"
#include "learn/learner.h"
#include "xsd/writer.h"

namespace condtd {

struct InferenceOptions {
  /// Registry name of the per-element learner. Any name registered in
  /// LearnerRegistry::Global() works: "auto" (the paper's two-regime
  /// recommendation — iDTD when an element has plenty of data, CRX when
  /// data is sparse), "idtd", "crx", "rewrite" (plain Algorithm 1), the
  /// interleaving learners "isore"/"sire", and the Section 8 baselines
  /// "trang" and "xtract".
  std::string learner = "auto";
  /// "auto" threshold: elements with at least this many observed words
  /// go through iDTD, sparser ones through CRX.
  int auto_idtd_min_words = 100;
  /// Section 9 noise handling: element names supported by fewer than
  /// this many occurrences are dropped from content models (0 = off).
  int noise_symbol_threshold = 0;
  /// Forwarded to iDTD (includes its edge-support noise threshold).
  IdtdOptions idtd;
  /// Forwarded to the XTRACT baseline learner; its `max_strings` also
  /// sizes the summaries' distinct-word reservoir when that learner is
  /// selected.
  XtractOptions xtract;
  /// Infer <!ATTLIST> declarations (#REQUIRED when an attribute occurs
  /// on every element occurrence).
  bool infer_attributes = true;
  /// Parse documents in tag-soup recovery mode (mismatched/stray/missing
  /// end tags are repaired instead of rejected) — for corpora like the
  /// paper's XHTML crawl where 89% of documents are not well-formed.
  bool lenient_xml = false;
  /// Documents per IngestEngine batch: workers pull whole batches from
  /// the work-stealing deque, so this trades hand-off overhead (small
  /// batches) against load-balance granularity (large batches). At one
  /// job a batch folds on the calling thread once full. The inferred
  /// DTD is identical at any value.
  int batch_docs = 32;
};

/// One element's share of a schema, learned from its summary alone
/// (DtdInferrer::InferElement). Nothing in it depends on another
/// element, which is what lets a reader keep the shares of unchanged
/// summaries between answers (the serve daemon's QUERY memo).
struct ElementSchema {
  /// The content model, or the error learning it failed with.
  Result<ContentModel> model = Status::Internal("element not learned");
  /// <!ATTLIST> definitions in attribute-name order (none unless
  /// `infer_attributes`).
  std::vector<Dtd::AttributeDef> attributes;
  /// XSD only: the content model's numeric occurrence bounds and the
  /// text datatype.
  XsdElementExtras xsd;
};

/// <!ATTLIST> definitions from an element's attribute counts, in name
/// order: CDATA, #REQUIRED iff the attribute occurred on all
/// `occurrences` of the element, else #IMPLIED.
std::vector<Dtd::AttributeDef> AttributeDefs(
    const std::map<std::string, int64_t, std::less<>>& counts,
    int64_t occurrences);

/// An element and its learned share, as the assemblers take them.
using ElementSchemaRef = std::pair<Symbol, const ElementSchema*>;

/// The end-to-end DTD inference engine of the paper. Feed it documents
/// (or raw per-element words); it maintains only the incremental
/// summaries of Section 9 — a SummaryStore of per-element
/// ElementSummary values — so the XML data never needs to stay
/// resident. Documents fold in through the streaming SAX fold
/// (StreamingFolder, infer/streaming.h); no document tree is built. Per
/// element it dispatches to the configured Learner from the global
/// registry.
class DtdInferrer {
 public:
  explicit DtdInferrer(InferenceOptions options = {});

  Alphabet* alphabet() { return &alphabet_; }
  const Alphabet& alphabet() const { return alphabet_; }

  const InferenceOptions& options() const { return options_; }

  /// The retained per-element summaries (plus root counts and
  /// seen-as-child marks). The streaming fold driver writes into this
  /// store directly; shard merge and persistence are its methods.
  SummaryStore& summaries() { return store_; }
  const SummaryStore& summaries() const { return store_; }

  /// The learner the options resolve to, or null for an unknown name
  /// (inference then fails with the registered names listed).
  const Learner* learner() const { return learner_; }

  /// Parses and folds one XML document through a per-call
  /// StreamingFolder (strict or lenient per `lenient_xml`). On error the
  /// document contributes nothing. Corpus-scale callers that want
  /// cross-document word deduplication should hold a StreamingFolder
  /// instead; this form dedups only within the document.
  Status AddXml(std::string_view xml);

  /// Directly folds words for one element (used by experiments).
  void AddWords(Symbol element, const std::vector<Word>& words);

  /// Merges another inferrer's retained summaries into this one,
  /// translating symbols between the two alphabets by name (Section 9
  /// "incremental computation": every summary is associative, so
  /// shard-local inferrers merge losslessly). Root counts, child marks,
  /// occurrence/attribute counts and per-element SOA/CRX summaries are
  /// summed; text datatype masks are ANDed.
  /// `other` must not alias this.
  void MergeFrom(const DtdInferrer& other);

  /// Runs InferElement on every element and assembles a DTD
  /// (AssembleDtd, rooted at SummaryStore::Root). Elements are fully
  /// independent, so with `num_threads` > 1 the per-element learner
  /// calls run on that many threads (the inferrer itself is only read);
  /// the assembled DTD is identical to the sequential result.
  Result<Dtd> InferDtd(int num_threads = 1) const;

  /// Content model for a single element (EMPTY/#PCDATA/mixed detection
  /// plus the learned RE).
  Result<ContentModel> InferContentModel(Symbol element) const;

  /// DTD plus per-element numeric/datatype extras rendered as an XSD
  /// (Section 9, "Generation of XSDs" + "Numerical predicates"), through
  /// InferElement and AssembleXsd. `num_threads` as for InferDtd.
  Result<std::string> InferXsd(int num_threads = 1) const;

  /// The per-element step of InferDtd/InferXsd: learns one element's
  /// share of the schema from `summary` alone, with this inferrer's
  /// learner and options. `xsd` adds the XSD extras.
  ElementSchema InferElement(const ElementSummary& summary, bool xsd) const;

  /// The assembling step of InferDtd: one DTD over `elements`, listed in
  /// ascending symbol order. The first element whose model failed
  /// decides the error; no elements fail with "no documents have been
  /// added".
  static Result<Dtd> AssembleDtd(Symbol root,
                                 const std::vector<ElementSchemaRef>& elements);

  /// The assembling step of InferXsd: AssembleDtd plus the elements' XSD
  /// extras, rendered with `alphabet`'s names.
  static Result<std::string> AssembleXsd(
      Symbol root, const std::vector<ElementSchemaRef>& elements,
      const Alphabet& alphabet);

  /// Number of element occurrences folded for `element`.
  int64_t WordCount(Symbol element) const;

  /// All elements observed so far, ascending.
  std::vector<Symbol> Elements() const;

  /// Serializes the retained summaries into the versioned line-based
  /// text format (see docs/STATE_FORMAT.md), realizing Section 9's
  /// "store the internal graph representation and forget the XML data".
  /// Symbol references are by name, so states can be restored in a
  /// fresh process.
  std::string SaveState() const;

  /// Merges a previously saved state into this inferrer. Safe to call
  /// on a non-empty inferrer (supports merging shards); the text
  /// datatypes for the XSD are preserved. Accepts the current format and
  /// the earlier versions 1 and 2 (SummaryStore::Load).
  Status LoadState(std::string_view serialized);

 private:
  Result<ContentModel> LearnContentModel(const ElementSummary& summary) const;
  Result<ReRef> LearnRegex(const ElementSummary& summary) const;
  /// InferElement over every element, on up to `num_threads` threads.
  std::vector<ElementSchema> InferElements(bool xsd, int num_threads) const;
  /// Pairs every element with its entry of `schemas` for the assemblers.
  std::vector<ElementSchemaRef> Refs(
      const std::vector<ElementSchema>& schemas) const;

  InferenceOptions options_;
  LearnOptions learn_options_;
  const Learner* learner_;
  Alphabet alphabet_;
  SummaryStore store_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_INFERRER_H_
