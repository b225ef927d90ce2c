#include "infer/session.h"

#include <utility>

namespace condtd {

IngestSession::IngestSession(InferenceOptions options)
    : options_(std::move(options)),
      inferrer_(options_),
      folder_(&inferrer_) {}

Status IngestSession::Ingest(std::string_view xml) {
  std::lock_guard<std::mutex> lock(mu_);
  const int names = inferrer_.alphabet()->size();
  Status status = folder_.AddXml(xml);
  if (!status.ok()) {
    // The rollback left zero-count dedup-cache entries for the words
    // this document completed. Kept, a later document holding the same
    // word would fold it at the rejected one's first-occurrence
    // position, and one whose new name reused a forgotten id would
    // inherit such an entry. Flush drops them (and, like the flush of
    // every snapshot, changes nothing a later fold sees); then no
    // summary, mark or cache entry refers to the names first seen in
    // this document, and they are forgotten.
    folder_.Flush();
    inferrer_.alphabet()->Truncate(names);
    failed_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  documents_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<int64_t>(xml.size()),
                   std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status IngestSession::IngestFile(const std::string& path,
                                 const InputBuffer::Options& input) {
  // The open happens outside the lock (it can fault in pages); only the
  // parse-and-fold needs the session serialized.
  Result<InputBuffer> content = InputBuffer::Open(path, input);
  if (!content.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return content.status();
  }
  return Ingest(content->view());
}

void IngestSession::MergeFrom(const DtdInferrer& other) {
  std::lock_guard<std::mutex> lock(mu_);
  // Flush first so the cached weighted folds of earlier documents land
  // before the merged names intern (keeps the combined state equal to a
  // sequential ingest-then-merge run).
  folder_.Flush();
  inferrer_.MergeFrom(other);
  epoch_.fetch_add(1, std::memory_order_release);
}

void IngestSession::Snapshot(std::string* state, int64_t* epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  folder_.Flush();
  *state = inferrer_.SaveState();
  if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_relaxed);
}

void IngestSession::SnapshotChanged(const std::vector<uint64_t>& known,
                                    Alphabet* alphabet,
                                    SummaryDelta* delta) {
  std::lock_guard<std::mutex> lock(mu_);
  folder_.Flush();
  const Alphabet& names = *inferrer_.alphabet();
  for (Symbol s = alphabet->size(); s < names.size(); ++s) {
    alphabet->Intern(names.Name(s));
  }
  const SummaryStore& store = inferrer_.summaries();
  delta->root = store.Root();
  delta->versions.clear();
  delta->changed.clear();
  delta->versions.reserve(store.elements().size());
  for (const auto& [symbol, summary] : store.elements()) {
    const uint64_t version = store.version(symbol);
    delta->versions.emplace_back(symbol, version);
    const size_t index = static_cast<size_t>(symbol);
    if ((index < known.size() ? known[index] : 0) != version) {
      delta->changed.emplace_back(symbol, summary);
    }
  }
}

void IngestSession::RestoreCounterFloors(int64_t documents, int64_t failed,
                                         int64_t bytes, int64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (documents_.load(std::memory_order_relaxed) < documents) {
    documents_.store(documents, std::memory_order_relaxed);
  }
  if (failed_.load(std::memory_order_relaxed) < failed) {
    failed_.store(failed, std::memory_order_relaxed);
  }
  if (bytes_.load(std::memory_order_relaxed) < bytes) {
    bytes_.store(bytes, std::memory_order_relaxed);
  }
  if (epoch_.load(std::memory_order_relaxed) < epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }
}

size_t IngestSession::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = bytes_memo_.ApproxBytes(inferrer_.summaries()) +
                 inferrer_.alphabet().ApproxBytes();
  bytes += folder_.cache_bytes_resident();
  return bytes;
}

void IngestSession::Inspect(
    const std::function<void(const DtdInferrer&, const StreamingFolder&)>&
        read) const {
  std::lock_guard<std::mutex> lock(mu_);
  read(inferrer_, folder_);
}

}  // namespace condtd
