#ifndef CONDTD_CRX_CRX_H_
#define CONDTD_CRX_CRX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "automaton/soa.h"
#include "base/status.h"
#include "regex/ast.h"

namespace condtd {

/// Incremental state of the CRX algorithm (Section 7 / Section 9
/// "Incremental computation"). Algorithm 3 reads two summaries of the
/// data:
///
///  * the direct-successor relation →_W over symbols, which is exactly
///    the edge set of the 2T-INF SOA folded from the same words — CRX
///    takes it, and the symbol set, from that SOA (`Infer`'s argument)
///    rather than keeping a second copy;
///  * a deduplicated multiset of per-word symbol histograms, kept here.
///    The histograms are what Algorithm 3's steps 6–13 need to assign
///    the ?/+/* qualifiers exactly — and because real corpora contain
///    few distinct content sequences, this summary stays tiny relative
///    to the XML data, which can be discarded after folding.
///
/// The histograms are hash-consed into one flat pool: their (symbol,
/// count) pairs back to back, an entry log of {hash, offset, length,
/// count} in first-insertion order, and an open-addressing slot array
/// over the entries. Offsets instead of pointers keep the state a plain
/// value: it copies and merges as three vectors.
class CrxState {
 public:
  /// Sparse per-word histogram: sorted (symbol, count) pairs.
  using Histogram = std::vector<std::pair<Symbol, int>>;
  /// A histogram as stored in the pool; valid until the state changes.
  using HistogramView = std::span<const std::pair<Symbol, int>>;

  CrxState() = default;

  /// Folds one word into the state. O(|word| log |word|).
  void AddWord(const Word& word);

  /// Weighted fold: equivalent to folding `word` `multiplicity` times —
  /// the word's histogram and the word/empty counts grow by
  /// `multiplicity`. Backs the streaming ingestion's word-multiset
  /// deduplication.
  void AddWord(const Word& word, int64_t multiplicity);

  /// Folds a batch.
  void AddWords(const std::vector<Word>& words);

  /// Runs Algorithm 3 on the summarized sample: equivalence classes of
  /// ≈_W (Tarjan SCC), Hasse diagram of the induced partial order
  /// (transitive reduction), merging of singleton classes with equal
  /// neighborhoods, deterministic topological sort, qualifier
  /// assignment. `soa` is the 2T-INF SOA of the same words (Infer2T, or
  /// an ElementSummary's `soa`): its states are the symbols and its
  /// edges →_W. Returns a CHARE r with W ⊆ L(r) (Theorem 3); fails with
  /// kFailedPrecondition when no symbol has been observed.
  ///
  /// Symbols observed fewer than `min_symbol_support` times in total are
  /// treated as noise and excluded (Section 9: "consider the support of
  /// each element name and simply disregard [it] when less than a given
  /// threshold").
  Result<ReRef> Infer(const Soa& soa, int min_symbol_support = 0) const;

  int64_t num_words() const { return num_words_; }
  bool has_empty_word() const { return empty_count_ > 0; }
  int64_t empty_count() const { return empty_count_; }
  /// Number of distinct per-word histograms retained.
  int num_distinct_histograms() const {
    return static_cast<int>(entries_.size());
  }

  /// Calls `fn(HistogramView, int64_t words)` once per distinct
  /// histogram, in first-insertion order (which depends on fold and
  /// merge order; readers must not).
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const Entry& entry : entries_) fn(View(entry), entry.count);
  }

  /// The histogram multiset (histogram → number of words) in
  /// lexicographic order of the histograms: the order state files list
  /// them in, and a canonical form for comparing states.
  std::vector<std::pair<Histogram, int64_t>> SortedHistograms() const;

  /// Restoration hooks used by the state (de)serializer: they merge raw
  /// summary entries without going through words. `histogram` must be
  /// sorted by symbol.
  void RestoreHistogram(const Histogram& histogram, int64_t count);
  void RestoreEmpty(int64_t count);

  /// Merges `other` into this state: histogram-multiset addition,
  /// word/empty count sums (Section 9 "incremental computation" — the
  /// summary is associative, so shard-local states merge losslessly in
  /// any order). `other` must not alias this. Associative and
  /// commutative.
  void MergeFrom(const CrxState& other);

  /// As above, but `other`'s symbols are first translated through
  /// `remap` (indexed by `other`'s symbol ids) — for shards that
  /// interned their alphabets independently.
  void MergeFrom(const CrxState& other, const std::vector<Symbol>& remap);

  /// Resident bytes of this state: the object plus its three vectors'
  /// capacities (see base/mem_estimate.h for the estimation contract).
  /// Feeds SummaryStore::ApproxBytes.
  size_t ApproxBytes() const;

 private:
  struct Entry {
    uint64_t hash = 0;
    uint32_t offset = 0;  ///< first pair in pool_
    uint32_t length = 0;  ///< number of pairs
    int64_t count = 0;    ///< words with this histogram
  };

  HistogramView View(const Entry& entry) const {
    return HistogramView(pool_.data() + entry.offset, entry.length);
  }
  /// Adds `count` words with `histogram` (hashed as `hash`), appending
  /// it to the pool when it is new. `histogram` must not point into
  /// this state's pool.
  void Insert(uint64_t hash, HistogramView histogram, int64_t count);
  /// Doubles the slot array and re-seats every entry by its stored hash.
  void Grow();

  std::vector<std::pair<Symbol, int>> pool_;
  std::vector<Entry> entries_;
  /// Power-of-two table of 1-based entry indices (0 = empty), probed
  /// triangularly; allocated on the first insertion.
  std::vector<uint32_t> slots_;
  int64_t empty_count_ = 0;
  int64_t num_words_ = 0;
};

/// One-shot CRX: fold `sample` (and its 2T-INF SOA) and infer.
Result<ReRef> CrxInfer(const std::vector<Word>& sample);

}  // namespace condtd

#endif  // CONDTD_CRX_CRX_H_
