// The untraced run: every end-to-end figure comes from the shipped
// binaries run as child processes, so it holds everything a user waits
// for — process start, reading, folding, learning, writing — and
// nothing of the harness. Timing stops at the child's exit (batch) or at
// the client reading the daemon's reply (serve); every output check runs
// outside those intervals.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "base/file.h"
#include "dtd/dtd_parser.h"
#include "harness.h"

namespace condtd {
namespace perfbench {
namespace {

/// A run is cut into rounds of about this many seconds, each a cold
/// set-up, a batch block and a serve block. The host's speed drifts by
/// tens of percent over a few seconds; rounds spread every figure,
/// setup_s included, evenly over the whole run, so each one averages
/// that drift instead of catching one moment of it.
constexpr double kRoundSeconds = 3;
constexpr int kMinRounds = 3;
/// The typical figure of a timing is this quantile of its samples, not
/// the median. The host runs in a steady slow state broken by fast
/// stretches that come and go: the median moves with the share of a run
/// that fell into fast stretches, an upper quantile stays on the slow
/// state. See README.md, "End-to-end metrics".
constexpr double kTypical = 0.9;
/// The launcher's own resident set seeds the child's ru_maxrss; a
/// do-nothing child must read below this.
constexpr int64_t kMaxNoopRssKib = 2048;

std::string FileName(size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "d%05zu.xml", i);
  return name;
}

/// `condtd infer` with its defaults over the corpus files.
class BatchPhase {
 public:
  BatchPhase(const Context& ctx, Report* report)
      : ctx_(ctx), report_(report) {
    argv_ = {ctx.condtd, "infer"};
    for (size_t i = 0; i < ctx.files.size(); ++i) {
      argv_.push_back(FileName(i));
    }
  }

  /// One invocation in a fresh directory of hard links with a fresh
  /// HOME/TMPDIR/XDG_CACHE_HOME: nothing a previous invocation left on
  /// disk can serve it. Returns its wall time in seconds.
  double ColdStart(int k) {
    std::string dir = ctx_.dir + "/cold-" + std::to_string(k);
    RemoveTree(dir);
    std::filesystem::create_directories(dir + "/in");
    for (size_t i = 0; i < ctx_.files.size(); ++i) {
      std::string link = dir + "/in/" + FileName(i);
      if (::link(ctx_.files[i].c_str(), link.c_str()) != 0) {
        report_->Check(false, "cannot link " + link);
        return 0;
      }
    }
    double seconds =
        Invoke(dir + "/in", dir + "/home") / 1e3;
    RemoveTree(dir);
    return seconds;
  }

  /// One invocation over the shared corpus dir; returns milliseconds.
  double Invoke() {
    return Invoke(ctx_.dir + "/corpus", ctx_.dir + "/home");
  }

  const std::string& dtd() const { return dtd_; }
  int64_t max_rss_kib() const { return max_rss_kib_; }
  std::vector<double>& infer_ms() { return infer_ms_; }

 private:
  double Invoke(const std::string& cwd, const std::string& home) {
    std::string out = ctx_.dir + "/infer.out";
    Result<ChildCost> cost = RunMeasured(ctx_, argv_, cwd, out, home);
    if (!report_->Check(cost.ok() && cost->exited_ok(),
                        "condtd infer failed")) {
      return 0;
    }
    max_rss_kib_ = std::max(max_rss_kib_, cost->maxrss_kib);
    Result<std::string> text = ReadFileToString(out);
    std::string dtd = text.ok() ? *text : std::string();
    if (dtd_.empty()) dtd_ = dtd;
    report_->Check(!dtd.empty() && dtd == dtd_,
                   "condtd infer wrote a different DTD than its first run");
    return Ms(cost->wall_ns);
  }

  const Context& ctx_;
  Report* report_;
  std::vector<std::string> argv_;
  std::string dtd_;
  int64_t max_rss_kib_ = 0;
  std::vector<double> infer_ms_;
};

/// `condtd serve` driven by one closed-loop client: the corpus cycles in
/// order, a DTD QUERY after every `ingests_per_query` INGESTs.
class ServePhase {
 public:
  ServePhase(const Context& ctx, Report* report)
      : ctx_(ctx), report_(report) {}

  /// Starts a daemon: on a fresh copy of the pre-seeded dir, or in memory
  /// warmed by as many untimed INGESTs.
  bool Start(int round) {
    std::string data_dir;
    seq_ = 0;
    last_documents_ = 0;
    first_dtds_.emplace_back();
    if (ctx_.workload->durable) {
      data_dir = ctx_.dir + "/data-run";
      Status copied = CopyTree(ctx_.dir + "/preseed", data_dir);
      if (!report_->Check(copied.ok(), copied.ToString())) return false;
      seq_ = PreseedDocs(ctx_);
    }
    Result<std::unique_ptr<Daemon>> daemon =
        Daemon::Start(ctx_, data_dir, "run" + std::to_string(round));
    if (!report_->Check(daemon.ok(), "condtd serve did not start: " +
                                         daemon.status().ToString())) {
      return false;
    }
    daemon_ = std::move(*daemon);
    while (seq_ < PreseedDocs(ctx_) && report_->failed == 0) Ingest(nullptr);
    return report_->failed == 0;
  }

  /// `ingests_per_query` timed INGESTs, then one timed QUERY.
  void Window() {
    for (int i = 0; i < ctx_.workload->ingests_per_query; ++i) {
      Ingest(&ingest_ms_);
    }
    int64_t start = NowNs();
    Result<std::string> dtd = daemon_->client().Query("bench");
    int64_t end = NowNs();
    if (!report_->Check(dtd.ok(), "QUERY failed: " +
                                      dtd.status().ToString())) {
      return;
    }
    query_ms_.push_back(Ms(end - start));
    Alphabet alphabet;
    report_->Check(ParseDtd(*dtd, &alphabet).ok(),
                   "QUERY returned a DTD that does not parse");
    if (first_dtds_.back().empty()) first_dtds_.back() = *dtd;
    dtd_ = std::move(*dtd);
  }

  /// STATS and SHUTDOWN of the current daemon.
  void Stop() {
    if (daemon_ == nullptr) return;
    Result<std::string> stats = daemon_->client().Stats();
    report_->Check(StatsField(stats, "query_cache_hits") == 0,
                   "STATS does not show zero query cache hits");
    if (ctx_.workload->durable) {
      report_->Check(StatsField(stats, "replayed_documents") ==
                         PreseedJournalDocs(ctx_),
                     "STATS replayed_documents is not the pre-seeded "
                     "journal tail of " +
                         std::to_string(PreseedJournalDocs(ctx_)));
    }
    Result<ChildCost> cost = daemon_->Shutdown();
    daemon_.reset();
    if (report_->Check(cost.ok() && cost->exited_ok(),
                       "condtd serve did not shut down cleanly")) {
      rss_kib_ = std::max(rss_kib_, cost->maxrss_kib);
      ++daemons_;
    }
  }

  /// Every daemon's first DTD and the last one's final DTD against
  /// IngestEngine over the same documents. A first DTD holds the
  /// pre-seed: a daemon that started without it answers differently.
  void CheckDtds() {
    const int64_t first = PreseedDocs(ctx_) + ctx_.workload->ingests_per_query;
    Result<std::string> reference = ReferenceDtd(ctx_, first);
    for (const std::string& dtd : first_dtds_) {
      report_->Check(reference.ok() && *reference == dtd,
                     "a daemon's first DTD differs from IngestEngine over "
                     "the same " + std::to_string(first) + " documents");
    }
    reference = ReferenceDtd(ctx_, seq_);
    report_->Check(reference.ok() && *reference == dtd_,
                   "final served DTD differs from IngestEngine over the "
                   "same " + std::to_string(seq_) + " documents");
  }

  const std::string& dtd() const { return dtd_; }
  int64_t rss_kib() const { return rss_kib_; }
  int64_t daemons() const { return daemons_; }
  std::vector<double>& ingest_ms() { return ingest_ms_; }
  std::vector<double>& query_ms() { return query_ms_; }

 private:
  void Ingest(std::vector<double>* samples) {
    const std::string& doc = ctx_.docs[seq_ % ctx_.docs.size()];
    int64_t start = NowNs();
    Result<std::string> ack = daemon_->client().IngestInline("bench", doc);
    int64_t end = NowNs();
    ++seq_;
    long long documents = -1;
    if (ack.ok()) {
      std::sscanf(ack->c_str(), "ingested documents=%lld", &documents);
    }
    if (!report_->Check(documents == last_documents_ + 1,
                        "INGEST ack did not advance documents= by one")) {
      return;
    }
    last_documents_ = documents;
    if (samples != nullptr) samples->push_back(Ms(end - start));
  }

  /// An integer field of the STATS reply; -1 if absent.
  static long long StatsField(const Result<std::string>& stats,
                              const std::string& name) {
    const std::string key = "\"" + name + "\": ";
    size_t at = stats.ok() ? stats->find(key) : std::string::npos;
    return at == std::string::npos
               ? -1
               : std::strtoll(stats->c_str() + at + key.size(), nullptr, 10);
  }

  const Context& ctx_;
  Report* report_;
  std::unique_ptr<Daemon> daemon_;
  int64_t seq_ = 0;  ///< documents the daemon folded, pre-seed included
  /// A daemon counts the documents it folded itself, from 0 after
  /// recovery: its first ack reads documents=1.
  long long last_documents_ = 0;
  std::vector<std::string> first_dtds_;  ///< one per daemon
  std::string dtd_;
  int64_t rss_kib_ = 0;
  int64_t daemons_ = 0;
  std::vector<double> ingest_ms_;
  std::vector<double> query_ms_;
};

/// Start-to-readiness of a daemon recovering a fresh copy of the
/// pre-seeded dir, in seconds.
double DaemonSetup(const Context& ctx, int k, Report* report) {
  std::string data_dir = ctx.dir + "/data-setup";
  Status copied = CopyTree(ctx.dir + "/preseed", data_dir);
  if (!report->Check(copied.ok(), copied.ToString())) return 0;
  Result<std::unique_ptr<Daemon>> daemon =
      Daemon::Start(ctx, data_dir, "setup" + std::to_string(k));
  if (!report->Check(daemon.ok(), "condtd serve did not start: " +
                                      daemon.status().ToString())) {
    return 0;
  }
  int64_t ready = (*daemon)->ready_ns();
  Result<ChildCost> cost = (*daemon)->Shutdown();
  if (!report->Check(cost.ok() && cost->exited_ok(),
                     "condtd serve did not shut down cleanly")) {
    return 0;
  }
  return static_cast<double>(ready - cost->spawn_ns) / 1e9;
}

bool Running(const Report& report, int64_t deadline) {
  return report.failed == 0 && NowNs() < deadline;
}

/// Every timed sample of the run, in the order taken, as samples.csv.
void WriteSamples(
    const Context& ctx,
    const std::vector<std::pair<const char*, const std::vector<double>*>>&
        series,
    Report* report) {
  std::string path = ctx.dir + "/samples.csv";
  FILE* out = std::fopen(path.c_str(), "w");
  bool ok = out != nullptr;
  if (ok) {
    std::fprintf(out, "kind,value\n");
    for (const auto& [kind, values] : series) {
      for (double value : *values) std::fprintf(out, "%s,%.9g\n", kind, value);
    }
    ok = std::fclose(out) == 0;
  }
  report->Check(ok, "cannot write " + path);
}

}  // namespace

void RunEndToEnd(Context* ctx, Report* report) {
  const Workload& workload = *ctx->workload;
  Result<ChildCost> noop = RunMeasured(*ctx, {ctx->spawn, "--noop"},
                                       ctx->dir, "-", ctx->dir + "/home");
  report->Check(noop.ok() && noop->maxrss_kib < kMaxNoopRssKib,
                "a do-nothing child reads " +
                    std::to_string(noop.ok() ? noop->maxrss_kib : -1) +
                    " KiB peak RSS; measured RSS would include the "
                    "launcher");
  if (workload.durable) {
    Status seeded =
        PreseedDataDir(ctx->dir + "/preseed", ctx->docs,
                       PreseedSnapshotDocs(*ctx), PreseedJournalDocs(*ctx));
    if (!report->Check(seeded.ok(), "pre-seed: " + seeded.ToString())) {
      return;
    }
  }

  BatchPhase batch(*ctx, report);
  ServePhase serve(*ctx, report);
  const bool batch_primary = workload.primary == Phase::kBatch;
  const bool restart = workload.fresh_daemon_per_round;
  std::vector<double> setup_s;
  if (!restart && !serve.Start(0)) return;

  const int rounds = std::max(
      kMinRounds, static_cast<int>(ctx->seconds / kRoundSeconds + 0.5));
  const int64_t block_ns =
      static_cast<int64_t>(ctx->seconds * 1e9 / (2 * rounds));
  for (int round = 0; round < rounds && report->failed == 0; ++round) {
    setup_s.push_back(batch_primary ? batch.ColdStart(round)
                                    : DaemonSetup(*ctx, round, report));
    int64_t deadline = NowNs() + block_ns;
    do {
      batch.infer_ms().push_back(batch.Invoke());
    } while (Running(*report, deadline));
    if (restart && !serve.Start(round)) break;
    deadline = NowNs() + block_ns;
    do {
      serve.Window();
    } while (Running(*report, deadline));
    if (restart) serve.Stop();
  }
  if (!restart) serve.Stop();
  if (report->failed == 0) serve.CheckDtds();
  WriteSamples(*ctx,
               {{"setup_s", &setup_s},
                {"infer_ms", &batch.infer_ms()},
                {"ingest_ms", &serve.ingest_ms()},
                {"query_ms", &serve.query_ms()}},
               report);
  if (report->failed > 0) return;

  CheckFingerprint(*ctx, batch.dtd(), workload.fingerprint, "batch",
                   report);
  CheckSoundness(*ctx, batch.dtd(), "batch", report);
  if (serve.dtd() != batch.dtd()) {
    CheckSoundness(*ctx, serve.dtd(), "served", report);
  }

  int64_t rss_kib = batch_primary ? batch.max_rss_kib() : serve.rss_kib();
  report->Add("setup_s", Quantile(setup_s, kTypical), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Add("infer_ms", Quantile(batch.infer_ms(), kTypical), "ms",
              static_cast<int64_t>(batch.infer_ms().size()));
  report->Add("peak_rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB",
              batch_primary
                  ? static_cast<int64_t>(batch.infer_ms().size() +
                                         setup_s.size())
                  : serve.daemons());
  int64_t ingests = static_cast<int64_t>(serve.ingest_ms().size());
  int64_t queries = static_cast<int64_t>(serve.query_ms().size());
  report->Add("ingest_p90_ms", Quantile(serve.ingest_ms(), kTypical), "ms",
              ingests);
  // Table only: over ten seeds its spread went past 0.25 on infer_learn
  // and serve_mixed, where it is a cold-cache INGEST (right after a
  // QUERY, or walking a 1.3 MB state) and moves with the host's load.
  report->Add("ingest_p99_ms", Quantile(serve.ingest_ms(), 0.99), "ms",
              ingests, /*in_result=*/false);
  report->Add("query_p90_ms", Quantile(serve.query_ms(), kTypical), "ms",
              queries);
  report->Add("query_p95_ms", Quantile(serve.query_ms(), 0.95), "ms",
              queries);
}

}  // namespace perfbench
}  // namespace condtd
