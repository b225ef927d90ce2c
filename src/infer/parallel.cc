#include "infer/parallel.h"

#include <algorithm>
#include <exception>
#include <string>

#include "obs/metrics.h"

namespace condtd {

std::atomic<ParallelDtdInferrer::IngestFault>
    ParallelDtdInferrer::ingest_fault_{nullptr};

void ParallelDtdInferrer::SetIngestFaultForTest(IngestFault fault) {
  ingest_fault_.store(fault, std::memory_order_release);
}

ParallelDtdInferrer::ParallelDtdInferrer(InferenceOptions options,
                                         int num_threads)
    : options_(options),
      num_threads_(num_threads > 0
                       ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency())),
      merged_(options) {
  if (options_.batch_docs < 1) options_.batch_docs = 1;
  obs::GaugeSet(obs::Gauge::kBatchDocs, options_.batch_docs);
  shards_.reserve(num_threads_);
  workers_.reserve(num_threads_);
  for (int t = 0; t < num_threads_; ++t) {
    shards_.push_back(std::make_unique<Shard>(options_));
  }
  for (int t = 0; t < num_threads_; ++t) {
    workers_.emplace_back(&ParallelDtdInferrer::Worker, this,
                          shards_[t].get());
  }
}

ParallelDtdInferrer::~ParallelDtdInferrer() {
  if (pending_ != nullptr) DispatchPending();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ParallelDtdInferrer::Enqueue(std::string_view text, bool is_path,
                                  bool copy) {
  if (pending_ == nullptr) {
    pending_ = std::make_unique<Batch>();
    pending_->items.reserve(static_cast<size_t>(options_.batch_docs));
  }
  WorkItem item;
  item.doc_index = next_doc_index_++;
  item.is_path = is_path;
  item.text = copy ? pending_->arena.Copy(text) : text;
  pending_->items.push_back(item);
  if (pending_->items.size() >=
      static_cast<size_t>(options_.batch_docs)) {
    DispatchPending();
  }
}

void ParallelDtdInferrer::DispatchPending() {
  deque_.Push(pending_.release());
  obs::SchedAdd(obs::SchedCounter::kBatchesDispatched, 1);
  // Empty critical section: orders the push before the notify so a
  // worker that checked the deque under the mutex cannot miss the wake.
  { std::lock_guard<std::mutex> lock(mutex_); }
  ready_.notify_one();
}

void ParallelDtdInferrer::AddXml(std::string_view xml) {
  Enqueue(xml, /*is_path=*/false, /*copy=*/true);
}

void ParallelDtdInferrer::AddBorrowedXml(std::string_view xml) {
  Enqueue(xml, /*is_path=*/false, /*copy=*/false);
}

void ParallelDtdInferrer::AddFile(std::string_view path) {
  Enqueue(path, /*is_path=*/true, /*copy=*/true);
}

Status ParallelDtdInferrer::LoadState(std::string_view serialized) {
  return merged_.LoadState(serialized);
}

void ParallelDtdInferrer::Worker(Shard* shard) {
  for (;;) {
    Batch* batch = deque_.Steal();
    if (batch == nullptr) {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return closed_ || !deque_.Empty(); });
      if (!deque_.Empty()) continue;  // race another steal attempt
      if (closed_) return;
      continue;  // spurious predicate pass; park again
    }
    obs::SchedAdd(obs::SchedCounter::kBatchSteals, 1);
    ProcessBatch(shard, batch);
  }
}

void ParallelDtdInferrer::ProcessBatch(Shard* shard, Batch* batch) {
  for (const WorkItem& item : batch->items) {
    std::string_view xml = item.text;
    InputBuffer buffer;
    Status status;
    bool opened = true;
    if (item.is_path) {
      // Worker-side open: this is what overlaps file I/O with parsing —
      // while this worker faults pages in, the others keep folding.
      obs::StageSpan io_span(obs::Stage::kIoRead);
      Result<InputBuffer> open =
          InputBuffer::Open(std::string(item.text), input_options_);
      if (open.ok()) {
        buffer = std::move(open).value();
        xml = buffer.view();
      } else {
        status = open.status();
        opened = false;
        obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
      }
    }
    // Parse + fold without any lock — the hot path touches only
    // shard-local state: the streaming fold writes SAX events straight
    // into the shard's summaries.
    //
    // Exception containment: a document that throws mid-ingestion
    // (std::bad_alloc on a pathological input, std::length_error from a
    // string resize, a throwing test fault) must not take down the
    // process — without the catch it would escape the thread entry
    // point and std::terminate. The document is rolled back
    // (AbortDocument undoes its dedup-cache increments) and recorded as
    // a DocumentError; the remaining documents keep folding. Names the
    // document interned before throwing stay in the shard alphabet, so
    // they are still replayed at the barrier — same as a plain parse
    // failure.
    int before = shard->inferrer.alphabet()->size();
    ++shard->docs_ingested;
    if (opened) {
      try {
        if (IngestFault fault =
                ingest_fault_.load(std::memory_order_acquire)) {
          fault(item.doc_index);
        }
        status = shard->folder.AddXml(xml);
      } catch (const std::exception& e) {
        shard->folder.AbortDocument();
        obs::SchedAdd(obs::SchedCounter::kWorkerExceptions, 1);
        obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
        status = Status::Internal(
            std::string("exception while ingesting document: ") + e.what());
      } catch (...) {
        shard->folder.AbortDocument();
        obs::SchedAdd(obs::SchedCounter::kWorkerExceptions, 1);
        obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
        status = Status::Internal(
            "non-standard exception while ingesting document");
      }
    }
    int after = shard->inferrer.alphabet()->size();
    if (after > before) {
      shard->new_names.push_back({item.doc_index, before, after});
    }
    if (!status.ok()) {
      shard->errors.push_back({item.doc_index, std::move(status)});
    }
  }
  obs::GaugeMax(obs::Gauge::kArenaBytesPeak,
                static_cast<int64_t>(batch->arena.footprint()));
  delete batch;
}

Status ParallelDtdInferrer::AggregateStatus() const {
  if (errors_.empty()) return Status::OK();
  if (errors_.size() == 1) return errors_.front().status;
  const DocumentError& first = errors_.front();
  return Status(first.status.code(),
                std::to_string(errors_.size()) +
                    " documents failed to ingest; first failure at "
                    "document " +
                    std::to_string(first.doc_index) + ": " +
                    first.status.message() +
                    " (see errors() for the full list)");
}

Status ParallelDtdInferrer::Finish() {
  if (finished_) return AggregateStatus();
  finished_ = true;
  if (pending_ != nullptr) DispatchPending();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  obs::StageSpan merge_span(obs::Stage::kShardMerge);

  // Replay newly-interned names in document-submission order so the
  // merged alphabet matches what a sequential run over the same corpus
  // would have interned. A name's global first occurrence is in the
  // earliest document containing it, and within that document the
  // shard-local log preserves first-encounter order, so the replay
  // reproduces the sequential id assignment exactly.
  struct Replay {
    int64_t doc_index;
    const Shard* shard;
    int first;
    int last;
  };
  std::vector<Replay> replays;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const Shard::NewNames& record : shard->new_names) {
      replays.push_back(
          {record.doc_index, shard.get(), record.first, record.last});
    }
  }
  std::sort(replays.begin(), replays.end(),
            [](const Replay& a, const Replay& b) {
              return a.doc_index < b.doc_index;
            });
  Alphabet* alphabet = merged_.alphabet();
  for (const Replay& replay : replays) {
    const Alphabet& shard_alphabet = replay.shard->inferrer.alphabet();
    for (int s = replay.first; s < replay.last; ++s) {
      alphabet->Intern(shard_alphabet.Name(s));
    }
  }

  // Drain each shard's dedup cache, then combine the shard stores with
  // a pairwise merge tree: in each round shard i absorbs shard
  // i+stride, independent pairs running on their own threads, and the
  // surviving shard merges into `merged_` last. Summaries are
  // associative, so the tree shape cannot change the result — it only
  // turns the O(k) serial merge chain into O(log k) parallel rounds.
  // Total MergeFrom count is unchanged: (k-1) pair merges + 1 final.
  std::vector<Shard*> live;
  live.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->folder.Flush();
    obs::GaugeMax(obs::Gauge::kShardDocsMax, shard->docs_ingested);
    for (DocumentError& error : shard->errors) {
      errors_.push_back(std::move(error));
    }
    live.push_back(shard.get());
  }
  for (size_t stride = 1; stride < live.size(); stride *= 2) {
    std::vector<std::thread> mergers;
    for (size_t i = 0; i + stride < live.size(); i += 2 * stride) {
      Shard* into = live[i];
      Shard* from = live[i + stride];
      if (i + 2 * stride < live.size()) {
        mergers.emplace_back([into, from] {
          into->inferrer.MergeFrom(from->inferrer);
          obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
        });
      } else {
        // Last pair of the round runs inline — no thread spawn for it.
        into->inferrer.MergeFrom(from->inferrer);
        obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
      }
    }
    for (std::thread& merger : mergers) merger.join();
  }
  merged_.MergeFrom(live.front()->inferrer);
  obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
  shards_.clear();
  std::sort(errors_.begin(), errors_.end(),
            [](const DocumentError& a, const DocumentError& b) {
              return a.doc_index < b.doc_index;
            });
  return AggregateStatus();
}

Result<Dtd> ParallelDtdInferrer::InferDtd() {
  CONDTD_RETURN_IF_ERROR(Finish());
  return merged_.InferDtd(num_threads_);
}

Result<std::string> ParallelDtdInferrer::InferXsd(bool numeric_predicates) {
  CONDTD_RETURN_IF_ERROR(Finish());
  return merged_.InferXsd(numeric_predicates, num_threads_);
}

}  // namespace condtd
