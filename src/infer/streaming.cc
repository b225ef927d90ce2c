#include "infer/streaming.h"

#include <string>
#include <utility>

#include "automaton/two_t_inf.h"
#include "obs/metrics.h"
#include "xml/sax.h"
#include "xsd/writer.h"

namespace condtd {

StreamingFolder::StreamingFolder(DtdInferrer* inferrer)
    : StreamingFolder(inferrer, Options()) {}

StreamingFolder::StreamingFolder(DtdInferrer* inferrer, Options options)
    : inferrer_(inferrer),
      store_(&inferrer->summaries()),
      options_(options) {}

StreamingFolder::~StreamingFolder() {
  Flush();
  PublishCounters();
}

ElementSummary* StreamingFolder::FindState(Symbol symbol) {
  size_t index = static_cast<size_t>(symbol);
  if (index >= state_cache_.size()) state_cache_.resize(index + 1, nullptr);
  ElementSummary*& entry = state_cache_[index];
  if (entry == nullptr) entry = store_->Find(symbol);
  return entry;
}

ElementSummary& StreamingFolder::EnsureState(Symbol symbol) {
  if (ElementSummary* entry = FindState(symbol)) return *entry;
  ElementSummary& summary = store_->Ensure(symbol);
  state_cache_[static_cast<size_t>(symbol)] = &summary;
  return summary;
}

StreamingFolder::Frame& StreamingFolder::PushFrame(Symbol symbol) {
  if (depth_ == stack_.size()) stack_.emplace_back();
  Frame& frame = stack_[depth_++];
  frame.symbol = symbol;
  frame.word.clear();
  frame.word_hash = WordHash::Seed(symbol);
  frame.text.clear();
  frame.has_text = false;
  frame.collect_text = false;
  frame.attr_first = static_cast<uint32_t>(attr_keys_.size());
  frame.attr_count = 0;
  return frame;
}

void StreamingFolder::HandleText(std::string_view text) {
  Frame& frame = stack_[depth_ - 1];
  if (!frame.has_text) {
    frame.has_text = true;
    // Once the committed mask is 0 no value can change the element's
    // datatype, so its text is not collected.
    const ElementSummary* summary = FindState(frame.symbol);
    frame.collect_text = summary == nullptr || summary->text_types != 0;
  }
  if (frame.collect_text) frame.text.append(text);
}

void StreamingFolder::CompleteTop() {
  Frame& frame = stack_[depth_ - 1];
  ++words_folded_;
  // Dense per-document occurrence aggregation: sum occurrences, has_text
  // and the datatype mask per symbol; only attribute-bearing occurrences
  // stage a per-occurrence record.
  const size_t idx = static_cast<size_t>(frame.symbol);
  if (idx >= doc_occurrences_.size()) {
    doc_occurrences_.resize(idx + 1, 0);
    doc_has_text_.resize(idx + 1, 0);
    doc_text_types_.resize(idx + 1, kAllTextTypes);
  }
  if (doc_occurrences_[idx]++ == 0) doc_touched_.push_back(frame.symbol);
  if (frame.has_text) {
    doc_has_text_[idx] = 1;
    // Uncollected text belongs to a summary whose mask is already 0.
    doc_text_types_[idx] &=
        frame.collect_text ? TextTypes(frame.text) : uint8_t{0};
  }
  if (frame.attr_count > 0) {
    doc_attr_records_.push_back(
        {frame.symbol, frame.attr_first, frame.attr_count});
  }
  // The frame's hash was built incrementally as children appended, so
  // the commit is one probe — no re-walk of the word.
  FlatWordCache::Upserted result =
      cache_.Upsert(frame.word_hash, frame.symbol, frame.word.data(),
                    static_cast<uint32_t>(frame.word.size()));
  if (result.inserted) {
    ++dedup_misses_;
  } else {
    ++dedup_hits_;
  }
  ++cache_.entry(result.index).count;
  word_journal_.push_back(result.index);
  if (contexts_ != nullptr) StageContext(frame);
  --depth_;
}

void StreamingFolder::StageContext(const Frame& frame) {
  Symbol parent = depth_ >= 2 ? stack_[depth_ - 2].symbol : kInvalidSymbol;
  doc_contexts_.push_back({frame.symbol, parent, frame.has_text,
                           static_cast<uint32_t>(context_symbols_.size()),
                           static_cast<uint32_t>(frame.word.size()),
                           frame.attr_first, frame.attr_count});
  context_symbols_.insert(context_symbols_.end(), frame.word.begin(),
                          frame.word.end());
}

void StreamingFolder::CommitContexts() {
  const SummaryLimits& limits = store_->limits();
  FoldTally tally;
  for (const ContextRecord& record : doc_contexts_) {
    auto [it, inserted] =
        contexts_->try_emplace({record.symbol, record.parent});
    ElementSummary& summary = it->second;
    // New summaries start words-complete iff the reservoir is enabled,
    // the rule SummaryStore::Ensure applies.
    if (inserted) summary.words_complete = limits.max_retained_words > 0;
    ++summary.occurrences;
    const Symbol* word = context_symbols_.data() + record.word_first;
    flush_word_.assign(word, word + record.word_length);
    summary.AddChildWord(flush_word_, 1, limits);
    tally.Count(flush_word_, 1);
    if (record.has_text) summary.has_text = true;
    CountAttributes(record.attr_first, record.attr_count, &summary);
  }
  tally.Publish();
}

void StreamingFolder::CountAttributes(uint32_t first, uint32_t count,
                                      ElementSummary* summary) {
  for (uint32_t a = 0; a < count; ++a) {
    std::string_view key = attr_keys_[first + a];
    auto it = summary->attribute_counts.find(key);
    if (it == summary->attribute_counts.end()) {
      it = summary->attribute_counts.emplace(std::string(key), 0).first;
    }
    ++it->second;
  }
}

void StreamingFolder::CommitDocument() {
  obs::StageSpan span(obs::Stage::kDedupCommit);
  store_->AddRoot(root_symbol_);
  ++documents_folded_;
  obs::CounterAdd(obs::Counter::kDocumentsIngested, 1);
  // One store touch per distinct symbol this document, not one per
  // occurrence; occurrence sums, has_text and the datatype AND are
  // order-insensitive. Attributes below only go to these symbols, so
  // stamping them here covers every summary the commit writes.
  for (Symbol s : doc_touched_) {
    const size_t idx = static_cast<size_t>(s);
    ElementSummary& summary = EnsureState(s);
    store_->MarkChanged(s);
    summary.occurrences += doc_occurrences_[idx];
    if (doc_has_text_[idx] != 0) {
      summary.has_text = true;
      summary.text_types &= doc_text_types_[idx];
    }
  }
  for (const AttrRecord& record : doc_attr_records_) {
    CountAttributes(record.attr_first, record.attr_count,
                    &EnsureState(record.symbol));
  }
  for (Symbol s : doc_new_children_) store_->MarkSeenAsChild(s);
  if (contexts_ != nullptr) CommitContexts();
  // The cache increments are already in place; committing just retires
  // the rollback journal (ResetDocument must not undo them).
  word_journal_.clear();
  obs::GaugeMax(obs::Gauge::kDedupCachePeak, distinct_words_cached());
  if (obs::StatsEnabled()) {
    obs::GaugeMax(obs::Gauge::kDedupCacheBytesPeak,
                  static_cast<int64_t>(cache_bytes_resident()));
  }
  if (static_cast<size_t>(distinct_words_cached()) >=
      options_.max_distinct_words) {
    Flush();
  }
  ResetDocument();
}

void StreamingFolder::PublishCounters() {
  lexer_.PublishCounters();
  if (words_folded_ != published_.words_folded) {
    obs::CounterAdd(obs::Counter::kWordsFolded,
                    words_folded_ - published_.words_folded);
  }
  if (dedup_hits_ != published_.dedup_hits) {
    obs::SchedAdd(obs::SchedCounter::kDedupHits,
                  dedup_hits_ - published_.dedup_hits);
  }
  if (dedup_misses_ != published_.dedup_misses) {
    obs::SchedAdd(obs::SchedCounter::kDedupMisses,
                  dedup_misses_ - published_.dedup_misses);
  }
  if (cache_.probe_steps() != published_.probe_steps) {
    obs::SchedAdd(obs::SchedCounter::kDedupProbeSteps,
                  cache_.probe_steps() - published_.probe_steps);
  }
  published_ = {words_folded_, dedup_hits_, dedup_misses_,
                cache_.probe_steps()};
}

void StreamingFolder::ResetDocument() {
  // Every way a document ends — commit, rejection, lexer error, an
  // aborted throw — comes through here, so this publishes its counts.
  PublishCounters();
  // Roll back this document's cache increments (no-op after a commit,
  // which clears the journal first). Zero-count entries stay resident —
  // Flush() skips them — so no erase is needed here.
  for (uint32_t index : word_journal_) --cache_.entry(index).count;
  word_journal_.clear();
  depth_ = 0;
  root_symbol_ = kInvalidSymbol;
  root_seen_ = false;
  for (Symbol s : doc_touched_) {
    doc_occurrences_[static_cast<size_t>(s)] = 0;
    doc_has_text_[static_cast<size_t>(s)] = 0;
    doc_text_types_[static_cast<size_t>(s)] = kAllTextTypes;
  }
  doc_touched_.clear();
  doc_attr_records_.clear();
  doc_contexts_.clear();
  context_symbols_.clear();
  attr_keys_.clear();
  doc_new_children_.clear();
}

void StreamingFolder::Flush() {
  if (cache_.empty()) return;
  obs::StageSpan span(obs::Stage::kWordFold);
  ++dedup_flushes_;
  obs::SchedAdd(obs::SchedCounter::kDedupFlushes, 1);
  // Entries iterate in insertion order == first-occurrence order == the
  // order the reference fold first folds each distinct word, keeping SOA
  // state numbering (and SaveState text) pinned to it. Zero-count
  // entries are rolled-back first occurrences from a failed document;
  // folding them would create an ElementSummary the reference fold
  // never would.
  //
  // The batch folds one structure at a time — CRX, then the SOA, then
  // versions and the reservoir — under one span per structure instead
  // of three per word. Each structure still sees every element's words
  // in that order, so no byte moves; CRX first keeps the batch's peak
  // RSS lowest (EXPERIMENTS.md, E22).
  const std::vector<FlatWordCache::Entry>& entries = cache_.entries();
  auto word_of = [this](const FlatWordCache::Entry& entry) -> const Word& {
    flush_word_.assign(entry.word, entry.word + entry.length);
    return flush_word_;
  };
  {
    obs::StageSpan crx_span(obs::Stage::kCrxFold);
    for (const FlatWordCache::Entry& entry : entries) {
      if (entry.count <= 0) continue;
      EnsureState(entry.element).crx.AddWord(word_of(entry), entry.count);
    }
  }
  {
    obs::StageSpan soa_span(obs::Stage::kTwoTInf);
    for (const FlatWordCache::Entry& entry : entries) {
      if (entry.count <= 0) continue;
      Fold2T(word_of(entry), &EnsureState(entry.element).soa, entry.count);
    }
  }
  const SummaryLimits& limits = store_->limits();
  FoldTally tally;
  int64_t folds = 0;
  for (const FlatWordCache::Entry& entry : entries) {
    if (entry.count <= 0) continue;
    store_->MarkChanged(entry.element);
    if (limits.max_retained_words > 0) {
      EnsureState(entry.element).RetainWord(word_of(entry), limits);
    }
    tally.Count({entry.word, entry.length}, entry.count);
    ++folds;
  }
  weighted_folds_ += folds;
  tally.Publish();
  obs::SchedAdd(obs::SchedCounter::kWeightedFoldOps, folds);
  cache_.Clear();
}

Status StreamingFolder::AddXml(std::string_view xml) {
  obs::StageSpan lex_span(obs::Stage::kLexParse);
  obs::CounterAdd(obs::Counter::kBytesIngested,
                  static_cast<int64_t>(xml.size()));
  const bool lenient = inferrer_->options().lenient_xml;
  ResetDocument();
  lexer_.Reset(xml);
  Alphabet* alphabet = inferrer_->alphabet();
  // Error paths below reset the document so nothing half-folded leaks
  // into the inferrer (the fold is transactional; see header).
  auto fail = [&](std::string message) {
    ResetDocument();
    obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
    return Status::ParseError(std::move(message));
  };

  while (true) {
    Result<SaxEvent> next = lexer_.Next();
    if (!next.ok()) {
      ResetDocument();
      obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
      return next.status();  // lexical errors fail even in lenient mode
    }
    const SaxEvent& event = next.value();
    switch (event.kind) {
      case SaxEventKind::kEof: {
        if (depth_ > 0) {
          if (!lenient) {
            return fail("unexpected end of document inside <" +
                        alphabet->Name(stack_[depth_ - 1].symbol) + ">");
          }
          while (depth_ > 0) CompleteTop();
        }
        if (!root_seen_) return fail("document has no root element");
        CommitDocument();
        return Status::OK();
      }
      case SaxEventKind::kDoctype:
        if (!lenient && (root_seen_ || depth_ > 0)) {
          return fail("DOCTYPE after the root element");
        }
        break;
      case SaxEventKind::kText:
        if (depth_ == 0) {
          if (lenient) break;  // dropped, as ParseXmlLenient does
          return fail("character data outside the root element at offset " +
                      std::to_string(event.offset));
        }
        HandleText(event.text);
        break;
      case SaxEventKind::kStartElement: {
        if (depth_ == 0 && root_seen_) {
          // Matching the DOM parser: strict rejects a second root;
          // lenient drops content after the root without interning its
          // name.
          if (!lenient) {
            return fail("multiple root elements (<" +
                        std::string(event.name) + ">)");
          }
          break;
        }
        if (!event.self_closing && depth_ >= kMaxElementDepth) {
          return fail("element nesting deeper than " +
                      std::to_string(kMaxElementDepth));
        }
        Symbol symbol = alphabet->Intern(event.name);
        if (depth_ == 0) {
          root_symbol_ = symbol;
          root_seen_ = true;
        } else {
          Frame& parent = stack_[depth_ - 1];
          parent.word.push_back(symbol);
          parent.word_hash = WordHash::Step(parent.word_hash, symbol);
          if (!store_->SeenAsChild(symbol)) {
            doc_new_children_.push_back(symbol);
          }
        }
        Frame& frame = PushFrame(symbol);
        if (inferrer_->options().infer_attributes) {
          for (const SaxAttribute& attr : lexer_.attributes()) {
            attr_keys_.push_back(attr.key);
            ++frame.attr_count;
          }
        }
        if (event.self_closing) CompleteTop();
        break;
      }
      case SaxEventKind::kEndElement: {
        if (!lenient) {
          if (depth_ == 0) {
            return fail("stray closing tag </" + std::string(event.name) +
                        ">");
          }
          const std::string& open = alphabet->Name(stack_[depth_ - 1].symbol);
          if (open != event.name) {
            return fail("mismatched closing tag </" +
                        std::string(event.name) + ">; expected </" + open +
                        ">");
          }
          CompleteTop();
          break;
        }
        // Lenient recovery: close down to the nearest matching open
        // element; drop the tag when nothing matches.
        int match = -1;
        for (int i = static_cast<int>(depth_) - 1; i >= 0; --i) {
          if (alphabet->Name(stack_[i].symbol) == event.name) {
            match = i;
            break;
          }
        }
        if (match < 0) break;
        while (static_cast<int>(depth_) > match) CompleteTop();
        break;
      }
    }
  }
}

}  // namespace condtd
