#include "infer/engine.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace condtd {

std::atomic<IngestEngine::IngestFault> IngestEngine::ingest_fault_{nullptr};

void IngestEngine::SetIngestFaultForTest(IngestFault fault) {
  ingest_fault_.store(fault, std::memory_order_release);
}

IngestEngine::IngestEngine(Options options)
    : options_(std::move(options)),
      num_threads_(std::max(1, options_.jobs)),
      merged_(options_.inference) {
  InferenceOptions& inference = options_.inference;
  if (inference.batch_docs < 1) inference.batch_docs = 1;
  obs::GaugeSet(obs::Gauge::kBatchDocs, inference.batch_docs);
  shards_.reserve(num_threads_);
  for (int t = 0; t < num_threads_; ++t) {
    shards_.push_back(std::make_unique<Shard>(inference));
  }
  // One job spawns no thread: DispatchPending then runs each batch on
  // the calling thread, keeping the process single-threaded.
  if (num_threads_ == 1) return;
  workers_.reserve(num_threads_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    workers_.emplace_back(&IngestEngine::Worker, this, shard.get());
  }
}

IngestEngine::~IngestEngine() { JoinWorkers(); }

Status IngestEngine::LoadState(std::string_view state) {
  if (finished_ || next_doc_index_ > 0) {
    return Status::FailedPrecondition(
        "LoadState must precede the first document");
  }
  // Before document 0 the first shard's alphabet holds loaded names
  // only; log them all ahead of every document for the barrier replay.
  Shard& shard = *shards_.front();
  Status status = shard.inferrer.LoadState(state);
  shard.new_names.assign(1, {-1, 0, shard.inferrer.alphabet()->size()});
  return status;
}

void IngestEngine::AddFile(std::string_view path) {
  Enqueue(path, /*is_path=*/true, /*copy=*/true);
}

void IngestEngine::AddXml(std::string_view xml) {
  Enqueue(xml, /*is_path=*/false, /*copy=*/true);
}

void IngestEngine::AddBorrowedXml(std::string_view xml) {
  Enqueue(xml, /*is_path=*/false, /*copy=*/false);
}

void IngestEngine::Enqueue(std::string_view text, bool is_path, bool copy) {
  const size_t batch_docs =
      static_cast<size_t>(options_.inference.batch_docs);
  if (pending_ == nullptr) {
    pending_ = std::make_unique<Batch>();
    pending_->items.reserve(batch_docs);
  }
  WorkItem item;
  item.doc_index = next_doc_index_++;
  item.is_path = is_path;
  item.text = copy ? pending_->arena.Copy(text) : text;
  pending_->items.push_back(item);
  if (pending_->items.size() >= batch_docs) DispatchPending();
}

void IngestEngine::DispatchPending() {
  obs::SchedAdd(obs::SchedCounter::kBatchesDispatched, 1);
  if (workers_.empty()) {
    ProcessBatch(shards_.front().get(), std::move(pending_));
    return;
  }
  deque_.Push(pending_.release());
  // Empty critical section: orders the push before the notify so a
  // worker that checked the deque under the mutex cannot miss the wake.
  { std::lock_guard<std::mutex> lock(mutex_); }
  ready_.notify_one();
}

void IngestEngine::Worker(Shard* shard) {
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
    ProcessBatch(shard, std::unique_ptr<Batch>(batch));
  }
}

void IngestEngine::ProcessBatch(Shard* shard, std::unique_ptr<Batch> batch) {
  for (const WorkItem& item : batch->items) {
    std::string_view xml = item.text;
    InputBuffer buffer;
    Status status;
    if (item.is_path) {
      // Opened where the batch runs: on a worker this overlaps file I/O
      // with parsing — while this worker faults pages in, the others
      // keep folding.
      obs::StageSpan io_span(obs::Stage::kIoRead);
      Result<InputBuffer> open =
          InputBuffer::Open(std::string(item.text), options_.input);
      if (open.ok()) {
        buffer = std::move(open).value();
        xml = buffer.view();
      } else {
        status = open.status();
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
    // process — on a worker it would escape the thread entry point and
    // std::terminate. The document is rolled back (AbortDocument undoes
    // its dedup-cache increments) and recorded as a DocumentError; the
    // remaining documents keep folding. Names the document interned
    // before throwing stay in the shard alphabet, so they are still
    // replayed at the barrier — same as a plain parse failure.
    int before = shard->inferrer.alphabet()->size();
    ++shard->docs_ingested;
    if (status.ok()) {
      bool thrown = false;
      try {
        if (IngestFault fault =
                ingest_fault_.load(std::memory_order_acquire)) {
          fault(item.doc_index);
        }
        status = shard->folder.AddXml(xml);
      } catch (const std::exception& e) {
        thrown = true;
        status = Status::Internal(
            std::string("exception while ingesting document: ") + e.what());
      } catch (...) {
        thrown = true;
        status = Status::Internal(
            "non-standard exception while ingesting document");
      }
      if (thrown) {
        shard->folder.AbortDocument();
        obs::SchedAdd(obs::SchedCounter::kWorkerExceptions, 1);
        obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
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
}

void IngestEngine::JoinWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void IngestEngine::MergeShards() {
  obs::StageSpan merge_span(obs::Stage::kShardMerge);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->folder.Flush();
    obs::GaugeMax(obs::Gauge::kShardDocsMax, shard->docs_ingested);
    for (DocumentError& error : shard->errors) {
      errors_.push_back(std::move(error));
    }
  }
  std::sort(errors_.begin(), errors_.end(),
            [](const DocumentError& a, const DocumentError& b) {
              return a.doc_index < b.doc_index;
            });
  // Every shard merges into the result exactly once.
  obs::SchedAdd(obs::SchedCounter::kShardMerges,
                static_cast<int64_t>(shards_.size()));

  if (shards_.size() == 1) {
    // A lone shard folded every document in submission order, so its
    // alphabet already is the sequential one: move it into the result
    // instead of copying it.
    merged_ = std::move(shards_.front()->inferrer);
    shards_.clear();
    return;
  }

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

  // Combine the shard stores with a pairwise merge tree: in each round
  // shard i absorbs shard i+stride, independent pairs running on their
  // own threads, and the surviving shard merges into `merged_` last.
  // Summaries are associative, so the tree shape cannot change the
  // result — it only turns the O(k) serial merge chain into O(log k)
  // parallel rounds.
  const size_t count = shards_.size();
  for (size_t stride = 1; stride < count; stride *= 2) {
    std::vector<std::thread> mergers;
    for (size_t i = 0; i + stride < count; i += 2 * stride) {
      DtdInferrer* into = &shards_[i]->inferrer;
      const DtdInferrer* from = &shards_[i + stride]->inferrer;
      if (i + 2 * stride < count) {
        mergers.emplace_back([into, from] { into->MergeFrom(*from); });
      } else {
        // Last pair of the round runs inline — no thread spawn for it.
        into->MergeFrom(*from);
      }
    }
    for (std::thread& merger : mergers) merger.join();
  }
  merged_.MergeFrom(shards_.front()->inferrer);
  // Frees the shards' dedup caches and summaries before learning.
  shards_.clear();
}

Status IngestEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    if (pending_ != nullptr) DispatchPending();
    JoinWorkers();
    MergeShards();
  }
  if (errors_.empty()) return Status::OK();
  if (errors_.size() == 1) return errors_.front().status;
  // Several failures: aggregate under the first failure's code, naming
  // the count and the lowest failed index (the full list is errors()).
  const DocumentError& first = errors_.front();
  return Status(first.status.code(),
                std::to_string(errors_.size()) +
                    " documents failed to ingest (first: document " +
                    std::to_string(first.doc_index) + ": " +
                    first.status.message() + ")");
}

}  // namespace condtd
