#include "infer/engine.h"

#include <algorithm>
#include <utility>

namespace condtd {

IngestEngine::IngestEngine(Options options)
    : options_(std::move(options)),
      sequential_(options_.inference),
      folder_(&sequential_) {
  if (options_.jobs != 1) {
    parallel_.emplace(options_.inference, options_.jobs);
    parallel_->set_input_options(options_.input);
  }
}

Status IngestEngine::LoadState(std::string_view state) {
  if (parallel_) return parallel_->LoadState(state);
  return sequential_.LoadState(state);
}

void IngestEngine::AddFile(const std::string& path) {
  int64_t index = next_doc_index_++;
  if (parallel_) {
    parallel_->AddFile(path);
    return;
  }
  Result<InputBuffer> content = InputBuffer::Open(path, options_.input);
  if (!content.ok()) {
    errors_.push_back({index, content.status()});
    return;
  }
  Status status = folder_.AddXml(content->view());
  if (!status.ok()) errors_.push_back({index, status});
}

void IngestEngine::AddXml(std::string_view xml) {
  int64_t index = next_doc_index_++;
  if (parallel_) {
    parallel_->AddXml(xml);
    return;
  }
  Status status = folder_.AddXml(xml);
  if (!status.ok()) errors_.push_back({index, status});
}

Status IngestEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    if (parallel_) {
      parallel_->Finish();
      errors_ = parallel_->errors();
    } else {
      folder_.Flush();
    }
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

DtdInferrer& IngestEngine::inferrer() {
  return parallel_ ? *parallel_->merged() : sequential_;
}

int IngestEngine::infer_threads() const {
  return parallel_ ? parallel_->num_threads() : 1;
}

}  // namespace condtd
