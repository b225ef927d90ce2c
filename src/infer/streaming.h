#ifndef CONDTD_INFER_STREAMING_H_
#define CONDTD_INFER_STREAMING_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alphabet/alphabet.h"
#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/summary.h"
#include "infer/word_cache.h"
#include "xml/sax.h"

namespace condtd {

/// Summaries keyed by vertical context: (element, parent), with parent
/// kInvalidSymbol for a document root. The same ElementSummary bundle a
/// SummaryStore keeps per element, split by the element's parent, but
/// without text datatypes: `has_text` is kept, `text_types` is not.
using ContextSummaries = std::map<std::pair<Symbol, Symbol>, ElementSummary>;

/// Streaming fold driver — the one way documents fold into a
/// `DtdInferrer`, and into the per-parent summaries of a
/// `ContextualInferrer`. It parses XML with the zero-copy `SaxLexer` and
/// folds each element the moment its end tag is seen into the owning
/// inferrer's SummaryStore — no `XmlElement` tree, no per-node
/// allocation. An explicit stack of open frames accumulates each
/// element's child-`Symbol` word (names interned directly into the
/// inferrer's alphabet, in start-tag order); attribute and text handling
/// is reduced to the counts and datatype masks the summaries actually
/// retain. Strict or tag-soup-lenient parsing follows the inferrer's
/// `lenient_xml` option, with the DOM parser's error messages and its
/// `kMaxElementDepth` nesting cap.
///
/// Word-multiset deduplication: real corpora repeat the same child
/// sequence thousands of times, so completed words are hash-consed into
/// a multiplicity cache and applied as weighted folds (CRX's and
/// 2T-INF's fold with a count) instead of being replayed — `Flush()`
/// (idempotent, also run by the destructor) drains the cache, and must
/// happen before the inferrer's summaries are read. The weighted folds
/// are exact, so flush timing never changes the inferred DTD.
///
/// Metrics cost the fold per document and per flush, not per event: a
/// flush times its whole batch (one `word_fold` span holding one
/// `crx_fold` and one `two_t_inf` span), and the word, dedup and lexer
/// counts are tallied in plain members and published when a document
/// ends, however it ends. The cache is a `FlatWordCache` (open addressing,
/// arena-backed keys); each open frame carries a running `WordHash`
/// updated as child symbols append, so the end-tag commit is a single
/// table probe with no full-word rehash.
///
/// Document transactionality: a document that fails to parse
/// contributes nothing to the summaries; only alphabet interning of
/// names seen before the error persists, which cannot affect any
/// all-clean corpus.
///
/// Vertical context: with a `ContextSummaries` map attached, each
/// completed element's word and attribute keys are also staged under
/// (element, the frame below it), and fold into the map one element at
/// a time, in end-tag order, when the document commits; a failed
/// document drops them with the rest of its state. A folder with no map attached pays
/// one pointer test per element for this.
///
/// Text datatypes: an element's text is classified (TextTypes,
/// xsd/writer.h) at its end tag and ANDed into a per-document mask,
/// which the commit ANDs into the summary. Text is collected only while
/// the summary's committed mask is non-zero, so an element whose values
/// are already strings costs one byte test per occurrence.
///
/// Byte identity: the SaveState text equals that of the reference
/// DOM-walk fold in src/check/, and that of IngestEngine at any job
/// count — the ingestion oracle checks both byte for byte.
class StreamingFolder {
 public:
  struct Options {
    /// Flush the dedup cache early when it holds this many distinct
    /// (element, word) pairs — bounds memory on adversarial corpora
    /// where words never repeat.
    size_t max_distinct_words = 1u << 20;
  };

  explicit StreamingFolder(DtdInferrer* inferrer);
  StreamingFolder(DtdInferrer* inferrer, Options options);
  ~StreamingFolder();

  StreamingFolder(const StreamingFolder&) = delete;
  StreamingFolder& operator=(const StreamingFolder&) = delete;

  /// Parses and folds one document (strict or lenient per the owning
  /// inferrer's options). On error the document's summaries are
  /// discarded.
  Status AddXml(std::string_view xml);

  /// Also folds every committed element's word into `contexts` under
  /// (element, parent) — see the class comment. Null detaches.
  void AttachContexts(ContextSummaries* contexts) { contexts_ = contexts; }

  /// Applies all cached weighted folds to the summaries. Idempotent.
  /// Must be called (or the folder destroyed) before the inferrer's
  /// summaries are read.
  void Flush();

  /// Abandons the document currently in flight (if any): rolls back its
  /// dedup-cache increments and clears the open-frame stack, exactly as
  /// a parse failure would. For callers that interrupt `AddXml` from the
  /// outside — IngestEngine calls this after containing an exception
  /// thrown mid-ingestion, so the failed document cannot leak
  /// half-folded words into the shard at the next Flush().
  void AbortDocument() { ResetDocument(); }

  /// Ingestion counters (for benchmarks and tests).
  int64_t documents_folded() const { return documents_folded_; }
  int64_t words_folded() const { return words_folded_; }
  int64_t weighted_folds_applied() const { return weighted_folds_; }
  int64_t distinct_words_cached() const {
    return static_cast<int64_t>(cache_.size());
  }
  int64_t dedup_hits() const { return dedup_hits_; }
  int64_t dedup_misses() const { return dedup_misses_; }
  int64_t dedup_flushes() const { return dedup_flushes_; }
  /// Bytes resident in the dedup cache (keys + arena blocks + table).
  size_t cache_bytes_resident() const { return cache_.bytes_resident(); }

 private:
  /// An open element: accumulates the child word — and, incrementally,
  /// its dedup hash — plus its text while its datatype is still open.
  /// Frames are pooled (depth_ marks the live prefix of stack_) so their
  /// Word/string capacity is reused across elements and documents.
  struct Frame {
    Symbol symbol = kInvalidSymbol;
    Word word;
    /// Running WordHash of (symbol, word): seeded at PushFrame, stepped
    /// per appended child, equal to WordHash::Mix at the end tag.
    uint64_t word_hash = 0;
    std::string text;
    bool has_text = false;
    bool collect_text = false;
    uint32_t attr_first = 0;
    uint32_t attr_count = 0;
  };

  /// An attribute-bearing occurrence; kept separately so the commit loop
  /// only visits occurrences that actually carried attributes.
  struct AttrRecord {
    Symbol symbol = kInvalidSymbol;
    uint32_t attr_first = 0;
    uint32_t attr_count = 0;
  };
  /// A completed element staged for the attached ContextSummaries; its
  /// word is `word_length` symbols of context_symbols_ from `word_first`,
  /// its attributes `attr_count` keys of attr_keys_ from `attr_first`.
  struct ContextRecord {
    Symbol symbol = kInvalidSymbol;
    Symbol parent = kInvalidSymbol;
    bool has_text = false;
    uint32_t word_first = 0;
    uint32_t word_length = 0;
    uint32_t attr_first = 0;
    uint32_t attr_count = 0;
  };

  /// Dense symbol-indexed cache of store entries, lazily filled — the
  /// fold hot path does one per-occurrence lookup here instead of a
  /// `std::map` search. Returns null while the element has no summary
  /// yet (Find never creates one: transactionality requires that a
  /// failed document leaves the store untouched). Map nodes are
  /// pointer-stable, so cached entries stay valid across inserts.
  ElementSummary* FindState(Symbol symbol);
  /// As FindState but creates (and caches) the entry — commit and
  /// flush only. A cached entry bypasses SummaryStore::Ensure, so every
  /// write through it is followed by a SummaryStore::MarkChanged.
  ElementSummary& EnsureState(Symbol symbol);

  Frame& PushFrame(Symbol symbol);
  void HandleText(std::string_view text);
  /// Closes the innermost open element: records its word and stats.
  void CompleteTop();
  void StageContext(const Frame& frame);
  void CommitDocument();
  void CommitContexts();
  /// Counts the `count` attribute keys of attr_keys_ from `first` into
  /// `summary`.
  void CountAttributes(uint32_t first, uint32_t count,
                       ElementSummary* summary);
  void ResetDocument();
  /// Adds this folder's and its lexer's counts since the last call to
  /// the obs registry: once per document, not once per event.
  void PublishCounters();

  DtdInferrer* inferrer_;
  SummaryStore* store_;
  Options options_;

  // Document-scoped state (reset per AddXml).
  std::vector<Frame> stack_;
  size_t depth_ = 0;
  Symbol root_symbol_ = kInvalidSymbol;
  bool root_seen_ = false;
  std::vector<std::string_view> attr_keys_;  // views into the document
  /// Reused across documents (Reset keeps scratch capacity), so lexing
  /// a corpus performs no per-document allocation either.
  SaxLexer lexer_;
  /// Dense per-document occurrence aggregation: instead of one staged
  /// record per completed element (the commit loop then paying an
  /// EnsureState + increment per occurrence), occurrences, has_text and
  /// the text datatype mask are aggregated per symbol during the parse
  /// and committed once per distinct symbol. doc_touched_ lists the
  /// symbols with nonzero counts, in first-completion order;
  /// attribute-bearing occurrences — the rare case — keep per-occurrence
  /// records.
  std::vector<int64_t> doc_occurrences_;
  std::vector<uint8_t> doc_has_text_;
  std::vector<uint8_t> doc_text_types_;
  std::vector<Symbol> doc_touched_;
  std::vector<AttrRecord> doc_attr_records_;
  /// One entry per word folded this document: the stable cache entry
  /// index whose count it incremented. Cleared on commit; decremented
  /// back on parse failure — a rolled-back first occurrence leaves a
  /// zero-count cache entry behind, which Flush() skips (and which a
  /// later clean document can reuse).
  std::vector<uint32_t> word_journal_;
  /// Child symbols first observed this document; the store's
  /// seen-as-child marks are applied only on commit.
  std::vector<Symbol> doc_new_children_;
  /// The attached per-parent summaries (null: none) and this document's
  /// words staged for them, in end-tag order.
  ContextSummaries* contexts_ = nullptr;
  std::vector<ContextRecord> doc_contexts_;
  std::vector<Symbol> context_symbols_;

  // Cross-document dedup cache. Completed words probe it directly with
  // the frame's incrementally built hash (one table probe per
  // occurrence, no rehash, no per-document staging map).
  FlatWordCache cache_;
  std::vector<ElementSummary*> state_cache_;
  /// Scratch for Flush() and CommitContexts(): materializes a word
  /// without reallocating.
  Word flush_word_;

  int64_t documents_folded_ = 0;
  int64_t words_folded_ = 0;
  int64_t weighted_folds_ = 0;
  int64_t dedup_hits_ = 0;
  int64_t dedup_misses_ = 0;
  int64_t dedup_flushes_ = 0;
  /// The counters above, and the cache's probe_steps(), as
  /// PublishCounters last reported them.
  struct Published {
    int64_t words_folded = 0;
    int64_t dedup_hits = 0;
    int64_t dedup_misses = 0;
    int64_t probe_steps = 0;
  };
  Published published_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_STREAMING_H_
