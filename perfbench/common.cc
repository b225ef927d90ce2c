// Report bookkeeping, statistics, corpus files and the output checks
// shared by the untraced and the traced run.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "harness.h"
#include "infer/engine.h"
#include "dtd/dtd_writer.h"
#include "serve/corpus.h"

namespace condtd {
namespace perfbench {

namespace fs = std::filesystem;

bool Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

bool Report::CheckStatus(const Status& status, std::string_view what) {
  if (status.ok()) return Check(true, std::string());
  return Check(false, std::string(what) + ": " + status.ToString());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  size_t below = static_cast<size_t>(position);
  if (below + 1 >= values.size()) return values.back();
  double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[below + 1] - values[below]);
}

uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status WriteCorpus(Context* ctx) {
  std::string dir = ctx->dir + "/corpus";
  RemoveTree(dir);
  std::error_code error;
  fs::create_directories(dir, error);
  if (error) return Status::Internal("mkdir " + dir + ": " + error.message());
  ctx->files.clear();
  for (size_t i = 0; i < ctx->docs.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "/d%05zu.xml", i);
    std::string path = dir + name;
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) return Status::Internal("cannot write " + path);
    const std::string& doc = ctx->docs[i];
    size_t done = 0;
    while (done < doc.size()) {
      ssize_t n = ::write(fd, doc.data() + done, doc.size() - done);
      if (n <= 0) {
        ::close(fd);
        return Status::Internal("short write to " + path);
      }
      done += static_cast<size_t>(n);
    }
    ::close(fd);
    ctx->files.push_back(path);
  }
  // Push the fresh corpus to disk now rather than when the kernel's
  // writeback timer fires in the middle of a measurement.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::syncfs(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Status PreseedDataDir(const std::string& dir,
                      const std::vector<std::string>& docs,
                      int64_t snapshot_docs, int64_t journal_docs) {
  RemoveTree(dir);
  serve::Corpus::Options options;
  options.data_dir = dir;
  options.fsync_journal = false;
  Result<std::unique_ptr<serve::Corpus>> corpus =
      serve::Corpus::Open("bench", options);
  if (!corpus.ok()) return corpus.status();
  const int64_t n = static_cast<int64_t>(docs.size());
  for (int64_t i = 0; i < snapshot_docs + journal_docs; ++i) {
    if (i == snapshot_docs) {
      CONDTD_RETURN_IF_ERROR((*corpus)->WriteSnapshot());
    }
    CONDTD_RETURN_IF_ERROR((*corpus)->Ingest(docs[i % n]));
  }
  return Status::OK();
}

Status CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code error;
  fs::copy(from, to, fs::copy_options::recursive, error);
  if (error) {
    return Status::Internal("copy " + from + " to " + to + ": " +
                            error.message());
  }
  return Status::OK();
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  fs::remove_all(path, error);
}

int64_t PreseedSnapshotDocs(const Context& ctx) {
  return ctx.workload->snapshot_passes *
         static_cast<int64_t>(ctx.docs.size());
}

int64_t PreseedJournalDocs(const Context& ctx) {
  return ctx.workload->journal_quarters *
         static_cast<int64_t>(ctx.docs.size()) / 4;
}

Result<std::string> ReferenceDtd(const Context& ctx, int64_t count) {
  // The sequence is whole passes over the corpus plus a prefix of one
  // more. Summaries are additive, so k passes are one pass's saved state
  // merged k times.
  const int64_t n = static_cast<int64_t>(ctx.files.size());
  IngestEngine pass(IngestEngine::Options{});
  for (const std::string& file : ctx.files) pass.AddFile(file);
  CONDTD_RETURN_IF_ERROR(pass.Finish());
  const std::string state = pass.inferrer().SaveState();
  IngestEngine engine(IngestEngine::Options{});
  for (int64_t k = 0; k < count / n; ++k) {
    CONDTD_RETURN_IF_ERROR(engine.LoadState(state));
  }
  for (int64_t i = 0; i < count % n; ++i) engine.AddFile(ctx.files[i]);
  CONDTD_RETURN_IF_ERROR(engine.Finish());
  Result<Dtd> dtd = engine.inferrer().InferDtd(engine.infer_threads());
  if (!dtd.ok()) return dtd.status();
  return WriteDtd(*dtd, *engine.inferrer().alphabet());
}

void CheckSoundness(const Context& ctx, const std::string& dtd_text,
                    const std::string& label, Report* report) {
  std::string schema = ctx.dir + "/" + label + ".dtd";
  FILE* out = std::fopen(schema.c_str(), "wb");
  bool written = out != nullptr &&
                 std::fwrite(dtd_text.data(), 1, dtd_text.size(), out) ==
                     dtd_text.size();
  if (out != nullptr) written = std::fclose(out) == 0 && written;
  if (!report->Check(written, "cannot write " + schema)) return;
  std::vector<std::string> argv = {ctx.condtd, "validate",
                                   "--schema=" + schema};
  argv.insert(argv.end(), ctx.files.begin(), ctx.files.end());
  Result<int> code = RunPlain(argv, ctx.dir + "/" + label + ".validate");
  report->Check(code.ok() && *code == 0,
                label + ": some input document is not valid against the "
                        "inferred DTD (see " + label + ".validate)");
}

void CheckFingerprint(const Context& ctx, const std::string& dtd_text,
                      const char* expected, const std::string& label,
                      Report* report) {
  if (ctx.seed != kDefaultSeed) return;
  std::string got = Hex16(Fnv1a(dtd_text));
  report->Check(got == expected, label + " DTD fingerprint " + got +
                                     " != pinned " + expected);
}

}  // namespace perfbench
}  // namespace condtd
