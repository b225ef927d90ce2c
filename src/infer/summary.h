#ifndef CONDTD_INFER_SUMMARY_H_
#define CONDTD_INFER_SUMMARY_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "automaton/soa.h"
#include "base/status.h"
#include "crx/crx.h"
#include "xsd/writer.h"

namespace condtd {

/// Retention caps applied while folding into a summary. Owned by the
/// SummaryStore (or by a caller holding loose ElementSummary values) and
/// passed into the fold/merge operations so the summary itself stays a
/// plain value type.
struct SummaryLimits {
  /// Capacity of the per-element distinct-word reservoir consumed by
  /// learners with `needs_full_words()` (XTRACT). 0 disables the
  /// reservoir entirely — the default, so summary-only pipelines pay
  /// nothing for it.
  int max_retained_words = 0;
};

/// The per-element retained state of Section 9: everything the engine
/// keeps about one element name once the XML data has been discarded.
/// This is the single shared bundle behind DtdInferrer, the contextual
/// inferrer, the streaming fold and the sharded merge — every learner
/// reads it and nothing else.
///
/// All fields form an associative merge algebra (`MergeFrom`): folding a
/// corpus shard-by-shard and merging is equivalent to folding it
/// sequentially, which is what makes the parallel and incremental
/// pipelines exact rather than approximate.
struct ElementSummary {
  /// 2T-INF single occurrence automaton over the child words (iDTD,
  /// rewrite and Trang-like input). Its edge set is also CRX's
  /// successor relation →_W.
  Soa soa;
  /// CRX's deduplicated per-word histograms.
  CrxState crx;
  /// Element occurrence count (== number of child words folded).
  int64_t occurrences = 0;
  bool has_text = false;
  /// The XSD datatypes every text value of this element satisfies:
  /// TextTypes bits (xsd/writer.h) ANDed over all of them, every bit
  /// until the first. Exact over the corpus, and merged with AND.
  uint8_t text_types = kAllTextTypes;
  /// std::less<> so the streaming fold can probe with the string_view
  /// attribute keys it holds into the document.
  std::map<std::string, int64_t, std::less<>> attribute_counts;

  /// Bounded reservoir of distinct child words, kept only when a
  /// registered learner declares `needs_full_words()` (XTRACT's
  /// disjunction-per-string construction cannot run off the SOA/CRX
  /// summaries). Sorted storage makes the reservoir — and therefore
  /// SaveState output and the learner's sample order — independent of
  /// fold order, so the streaming fold, the sharded pipeline and the
  /// reference fold in src/check/ agree.
  std::set<Word> retained_words;
  /// A distinct word was dropped because the reservoir was full. Word
  /// learners fail with kResourceExhausted rather than learn from a
  /// truncated sample.
  bool words_overflowed = false;
  /// False when the reservoir was never collected for this element
  /// (reservoir disabled, or the summary came from a state file saved
  /// without words). Word learners fail with kFailedPrecondition.
  bool words_complete = false;

  /// Folds one child word `multiplicity` times: SOA edges/supports, CRX
  /// histograms and the word reservoir (multiplicity-invariant). Does
  /// NOT touch `occurrences` — occurrence accounting belongs to the
  /// ingestion drivers, which count at element-open or document-commit
  /// time while words fold at end-tag or cache-flush time. Records no
  /// metrics: callers count their folds in a `FoldTally`.
  void AddChildWord(const Word& word, int64_t multiplicity,
                    const SummaryLimits& limits);

  /// The reservoir step of AddChildWord.
  void RetainWord(const Word& word, const SummaryLimits& limits);

  /// Merges `other` into this summary (sums counts, unions the SOA/CRX
  /// summaries and the word reservoir, ANDs the text datatypes). When
  /// `remap` is non-null, `other`'s symbols are first translated
  /// through it (indexed by the other alphabet's ids).
  /// `other` must not alias this.
  void MergeFrom(const ElementSummary& other,
                 const std::vector<Symbol>* remap,
                 const SummaryLimits& limits);

  /// Rough resident bytes of this summary (SOA + CRX + attribute counts
  /// + word reservoir; see base/mem_estimate.h for the estimation
  /// contract).
  size_t ApproxBytes() const;
};

/// What a batch of child-word folds adds to the obs registry: the
/// folds weighted by multiplicity (`child_word_folds`) and, per word,
/// whether the dense kernels could take it (`dense_fold_hits` /
/// `dense_fold_fallbacks`; ε is neither). A folding loop counts into
/// one and publishes it once, so a fold pays no atomic add per word.
struct FoldTally {
  int64_t child_word_folds = 0;
  int64_t dense_hits = 0;
  int64_t dense_fallbacks = 0;

  /// Counts one fold; a no-op while stats are off.
  void Count(std::span<const Symbol> word, int64_t multiplicity);
  void Publish() const;
};

/// The unified store of retained summaries: per-element ElementSummary
/// plus the corpus-level root counts and seen-as-child marks, with the
/// shard-merge algebra and the versioned persistence format in one
/// place. DtdInferrer owns one; StreamingFolder folds into it directly;
/// IngestEngine merges shard stores through it.
class SummaryStore {
 public:
  explicit SummaryStore(SummaryLimits limits = {});

  const SummaryLimits& limits() const { return limits_; }

  /// Finds or creates the summary for `symbol` and stamps it with a new
  /// version (the caller is about to write it). New summaries start
  /// words-complete iff the reservoir is enabled (their — empty —
  /// reservoir then reflects every word folded so far).
  ElementSummary& Ensure(Symbol symbol);
  /// Returns the summary for `symbol` or null; never creates one (the
  /// streaming fold's transactionality depends on probes being pure).
  ElementSummary* Find(Symbol symbol);
  const ElementSummary* Find(Symbol symbol) const;

  bool empty() const { return elements_.empty(); }
  const std::map<Symbol, ElementSummary>& elements() const {
    return elements_;
  }

  void AddRoot(Symbol symbol, int64_t count = 1) {
    root_counts_[symbol] += count;
  }
  const std::map<Symbol, int64_t>& root_counts() const {
    return root_counts_;
  }

  void MarkSeenAsChild(Symbol symbol);
  bool SeenAsChild(Symbol symbol) const;

  /// The schema's root: the most frequent document root (the lowest
  /// symbol on a tie); with no roots recorded (direct AddWords use), the
  /// first element never seen as a child, else the first element.
  /// kInvalidSymbol for an empty store.
  Symbol Root() const;

  /// The element's version: a store-wide stamp that moves whenever
  /// anything in its summary changes, so a reader that learned from the
  /// summary at version v need not learn again while it reads v. 0 for
  /// a symbol with no summary. Versions live only in memory: Save never
  /// writes them, and they mean nothing outside the store that stamped
  /// them.
  uint64_t version(Symbol symbol) const {
    return symbol >= 0 && symbol < static_cast<Symbol>(versions_.size())
               ? versions_[symbol]
               : 0;
  }
  /// Stamps `symbol` with a new version. The store's own writers
  /// (Ensure, MergeFrom, Load) stamp for themselves; a caller that keeps
  /// a summary pointer and writes through it later — the streaming
  /// fold's pointer cache — stamps each element it writes.
  void MarkChanged(Symbol symbol);

  /// Merges `other` into this store, translating its symbols through
  /// `remap` (indexed by the other store's symbol ids — build it by
  /// interning the other alphabet's names). Associative; `other` must
  /// not alias this.
  void MergeFrom(const SummaryStore& other, const std::vector<Symbol>& remap);

  /// Serializes the store into the line-based state format (versioned
  /// header; see docs/STATE_FORMAT.md), realizing Section 9's "store the
  /// internal graph representation and forget the XML data". Symbol
  /// references are by name via `alphabet`. Every list is written in
  /// symbol-id order (an element's SOA states, and each state's edges,
  /// by their target's id), so the bytes do not depend on fold or merge
  /// order.
  std::string Save(const Alphabet& alphabet) const;

  /// Merges a previously saved state into this store, interning names
  /// into `alphabet`. Accepts format versions 1 (pre-reservoir), 2 (text
  /// samples) and 3; anything else fails with a clear message.
  /// Version-1 summaries are marked words-incomplete since the file
  /// cannot carry a reservoir; version-1 and -2 text samples are
  /// classified into the datatype mask.
  Status Load(std::string_view serialized, Alphabet* alphabet);

  /// Rough resident bytes of the whole store: the sum of the per-element
  /// summaries plus OwnBytes. A full walk, O(elements + retained data);
  /// the serve daemon reads the same figure through a StoreBytesMemo.
  size_t ApproxBytes() const;
  /// The store's own part of ApproxBytes: its maps and vectors, not the
  /// summaries they hold. O(1).
  size_t OwnBytes() const;

 private:
  SummaryLimits limits_;
  std::map<Symbol, ElementSummary> elements_;
  std::map<Symbol, int64_t> root_counts_;
  /// Dense flat set keyed by symbol id (symbols are small dense ints;
  /// this is touched once per child element parsed).
  std::vector<bool> seen_as_child_;
  /// Per-symbol versions (0 = no summary) and the clock that stamps them.
  std::vector<uint64_t> versions_;
  uint64_t clock_ = 0;
};

/// SummaryStore::ApproxBytes without the full walk: remembers each
/// summary's bytes with the version it measured them at, and re-measures
/// only the summaries whose version moved since the last call. The
/// result equals a full walk of the same store, because every write to
/// a summary moves its version. The serve daemon reports it as the
/// per-corpus `condtd_corpus_bytes` gauge and holds its per-tenant
/// memory cap against it, on every INGEST. Bound to one store; not
/// thread-safe (IngestSession's lock serializes it with the writers).
class StoreBytesMemo {
 public:
  size_t ApproxBytes(const SummaryStore& store);

 private:
  /// Indexed by symbol: the version last measured (0: never) and the
  /// summary's bytes at that version.
  std::vector<std::pair<uint64_t, size_t>> measured_;
  /// The sum of the measured bytes.
  size_t summaries_bytes_ = 0;
};

}  // namespace condtd

#endif  // CONDTD_INFER_SUMMARY_H_
