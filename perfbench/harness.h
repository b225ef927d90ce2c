// Shared declarations of the perfbench harness: the workload table,
// the seeded corpora, measured child processes, and the report every
// run prints. See README.md for what each workload is for.

#ifndef CONDTD_PERFBENCH_HARNESS_H_
#define CONDTD_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "serve/client.h"

namespace condtd {
namespace perfbench {

/// The seed that reproduces the repository's golden corpora: the Table
/// 1/Table 2 experiment seed and the synthetic corpus behind the 64 MiB
/// DTD fingerprint. Fingerprints are pinned at this seed only.
inline constexpr uint64_t kDefaultSeed = 20060912;

// --- corpora (corpus.cc) ---------------------------------------------

/// DBLP-shaped text-dominant records, 64 MiB in about 857 documents.
std::vector<std::string> SyntheticTextCorpus(uint64_t seed);
/// Every Table 1 and Table 2 content model as pure markup, 100 records
/// per document, one case per document.
std::vector<std::string> TableMarkupCorpus(uint64_t seed);
/// The 1496 Table 1 documents with #PCDATA leaves and an id attribute.
std::vector<std::string> Table1TextCorpus(uint64_t seed);

// --- workloads (main.cc) ---------------------------------------------

enum class Phase { kBatch, kServe };

struct Workload {
  const char* name;
  /// The phase whose program the workload is about: it owns setup_s and
  /// peak_rss_mib, and the per-layer learn/dtd figures.
  Phase primary;
  std::vector<std::string> (*make_docs)(uint64_t seed);
  /// Serve phase on a pre-seeded durable data dir (--no-fsync) instead
  /// of an in-memory corpus warmed by untimed INGESTs.
  bool durable;
  /// A fresh durable daemon every round instead of one per run, so the
  /// serve figures average over that many daemon processes.
  bool fresh_daemon_per_round;
  /// Documents folded before the first timed INGEST, in passes over the
  /// corpus: the pre-seeded dir's snapshot, then its journal tail (in
  /// quarter passes). An in-memory daemon ingests as many, untimed.
  int snapshot_passes;
  int journal_quarters;
  /// The serve phase sends a DTD QUERY after every this many INGESTs.
  int ingests_per_query;
  /// FNV-1a of the batch DTD at kDefaultSeed. The served DTD is checked
  /// against IngestEngine instead: it depends on how many documents the
  /// run ingested (the auto learner switches on occurrence counts).
  const char* fingerprint;
};

// --- report ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
  /// False for a figure printed in the table only: it is not in the
  /// JSON result, so no bound in BENCHMARK.json holds it.
  bool in_result = true;
};

/// What one run prints: metrics, operations attempted and failed, and
/// the failure messages. A failed output check counts as a failed
/// operation.
struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit,
           int64_t samples, bool in_result = true) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, in_result});
  }
  /// Records one checked operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
  /// Check(status.ok()), naming `what` and the status on failure.
  bool CheckStatus(const Status& status, std::string_view what);
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

uint64_t Fnv1a(std::string_view text);
std::string Hex16(uint64_t value);
int64_t NowNs();
inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- files, processes and checks (common.cc, process.cc) -------------

/// Where the run works and which binaries it measures. Every path is
/// absolute; the harness runs with `dir` as its working directory.
struct Context {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  std::string condtd;  ///< the shipped CLI
  std::string spawn;   ///< perfbench_spawn
  std::string dir;     ///< per-workload work directory
  std::vector<std::string> docs;
  std::vector<std::string> files;  ///< docs[i] lives at files[i]
};

/// Writes docs as corpus/d<N>.xml under the work dir and syncs them, so
/// no writeback of the fresh corpus lands inside a timed region.
Status WriteCorpus(Context* ctx);

/// Builds a data dir holding corpus "bench": a snapshot of the first
/// `snapshot_docs` documents of the cycling sequence, then a journal
/// tail of the next `journal_docs`.
Status PreseedDataDir(const std::string& dir,
                      const std::vector<std::string>& docs,
                      int64_t snapshot_docs, int64_t journal_docs);

/// Replaces `to` with a copy of the tree at `from`.
Status CopyTree(const std::string& from, const std::string& to);
void RemoveTree(const std::string& path);

/// What one measured child cost, as perfbench_spawn saw it.
struct ChildCost {
  int64_t spawn_ns = 0;  ///< steady-clock time of the fork
  int64_t wall_ns = 0;
  int64_t maxrss_kib = 0;
  int wait_status = 0;
  bool exited_ok() const;
};

/// Runs `argv` to completion under perfbench_spawn, in `cwd`, with its
/// stdout written to `stdout_path` ("-" = inherit). `home` is the
/// directory used as HOME/TMPDIR/XDG_CACHE_HOME for the child.
Result<ChildCost> RunMeasured(const Context& ctx,
                              const std::vector<std::string>& argv,
                              const std::string& cwd,
                              const std::string& stdout_path,
                              const std::string& home);

/// Confines the harness, and with it every child it starts, to the last
/// CPU it may use. A closed loop never has two runnable threads, so one
/// CPU costs it nothing, and it saves every hand-off between client and
/// daemon a wake-up of an idle virtual CPU, whose latency depends on
/// the host's load rather than on condtd.
void PinToOneCpu();

/// Runs `argv` unmeasured (checks only) and returns its exit code.
Result<int> RunPlain(const std::vector<std::string>& argv,
                     const std::string& stdout_path);

/// One `condtd serve` under perfbench_spawn, connected through one
/// serve::Client over a Unix socket in the work dir. The destructor
/// stops a daemon that was not shut down and waits for it.
class Daemon {
 public:
  /// Spawns the daemon (durable when `data_dir` is non-empty), waits for
  /// its readiness line and connects.
  static Result<std::unique_ptr<Daemon>> Start(const Context& ctx,
                                               const std::string& data_dir,
                                               const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Client& client() { return client_; }
  /// Steady-clock time the readiness line was read.
  int64_t ready_ns() const { return ready_ns_; }

  /// SHUTDOWN over the wire, then waits for the process to end.
  Result<ChildCost> Shutdown();

 private:
  Daemon() = default;
  void Kill();

  pid_t launcher_ = -1;
  int stdout_fd_ = -1;
  std::string result_path_;
  int64_t ready_ns_ = 0;
  serve::Client client_;
};

// --- the two kinds of run --------------------------------------------

/// Untraced run: the shipped binaries as child processes. Fills the
/// end-to-end metrics.
void RunEndToEnd(Context* ctx, Report* report);

/// Traced run: the same inputs replayed in-process through each layer's
/// entry points. Fills the per-layer metrics.
void RunTraced(Context* ctx, Report* report);

/// Documents folded before the first timed INGEST: in the pre-seeded
/// snapshot, and in its journal tail.
int64_t PreseedSnapshotDocs(const Context& ctx);
int64_t PreseedJournalDocs(const Context& ctx);
inline int64_t PreseedDocs(const Context& ctx) {
  return PreseedSnapshotDocs(ctx) + PreseedJournalDocs(ctx);
}

/// The DTD IngestEngine infers from documents 0..count-1 of the cycling
/// sequence (file i % n): the reference the daemon must match.
Result<std::string> ReferenceDtd(const Context& ctx, int64_t count);

/// `condtd validate` of every corpus file against `dtd_text`.
void CheckSoundness(const Context& ctx, const std::string& dtd_text,
                    const std::string& label, Report* report);

/// Pins `dtd_text`'s fingerprint at the default seed.
void CheckFingerprint(const Context& ctx, const std::string& dtd_text,
                      const char* expected, const std::string& label,
                      Report* report);

}  // namespace perfbench
}  // namespace condtd

#endif  // CONDTD_PERFBENCH_HARNESS_H_
