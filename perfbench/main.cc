// perfbench: one run of one workload of condtd's benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --condtd PATH --spawn PATH --work DIR
//
// Prints a human-readable table and, as its last line, the JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
// end-to-end metrics through the shipped binaries; --trace 1 replays the
// same inputs in-process and reports the per-layer metrics. Exits 1 when
// any output check failed. run.py builds the binaries and calls this.

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace condtd {
namespace perfbench {
namespace {

const Workload kWorkloads[] = {
    // io, xml and the infer fold do nearly all of the batch work: a
    // reader, tokenizer, fold or dedup change moves infer_ms here, a
    // learner change does not.
    {"infer_text", Phase::kBatch, SyntheticTextCorpus, /*durable=*/false,
     /*fresh_daemon_per_round=*/false, /*snapshot_passes=*/1,
     /*journal_quarters=*/1, /*ingests_per_query=*/30, "3946b8c0bcc3a718"},
    // Learning dominates (205 elements, example4's 61-symbol iDTD): the
    // Section 8.3 regime where a learner change shows. A QUERY costs
    // about as much as `condtd infer`, so the daemon gets one per pass
    // over the 231 documents. An INGEST walks the 1.3 MB state, and its
    // cost moved with the daemon process: its p90 spread 0.33 over ten
    // runs of one daemon each, 0.05-0.22 over four such sets with a
    // fresh daemon per round.
    {"infer_learn", Phase::kBatch, TableMarkupCorpus, /*durable=*/true,
     /*fresh_daemon_per_round=*/true, /*snapshot_passes=*/11,
     /*journal_quarters=*/4, /*ingests_per_query=*/231, "dcc5a36649967807"},
    // Writes beside uncached reads on one durable corpus: wire, fold and
    // journal against snapshot, text round-trip, learn and emit.
    {"serve_mixed", Phase::kServe, Table1TextCorpus, /*durable=*/true,
     /*fresh_daemon_per_round=*/false, /*snapshot_passes=*/10,
     /*journal_quarters=*/8, /*ingests_per_query=*/30, "50acb049ed493d7f"},
};

std::string Number(double value) {
  char buffer[64];
  std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void PrintReport(const Context& ctx, bool trace, const Report& report) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d documents=%zu\n",
              ctx.workload->name, static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, trace ? 1 : 0, ctx.docs.size());
  std::printf("  %-30s %14s %-6s %9s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& metric : report.metrics) {
    std::printf("  %-30s %14.6g %-6s %9lld%s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<long long>(metric.samples),
                metric.in_result ? "" : "  (table only)");
  }
  std::printf("operations: %lld attempted, %lld failed\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const char* separator = "";
  for (const Metric& metric : report.metrics) {
    if (!metric.in_result) continue;
    json += separator;
    json += "\"" + metric.name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    separator = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --condtd PATH --spawn PATH --work DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Die with run.py; the launchers then stop the children they measure.
  pid_t parent = ::getppid();
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) return 1;
  Context ctx;
  std::string workload_name, work;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(ctx.seconds > 0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--condtd") {
      ctx.condtd = value;
    } else if (flag == "--spawn") {
      ctx.spawn = value;
    } else if (flag == "--work") {
      work = value;
    } else {
      return Usage();
    }
  }
  for (const Workload& workload : kWorkloads) {
    if (workload_name == workload.name) ctx.workload = &workload;
  }
  if (argc % 2 != 1 || ctx.workload == nullptr || trace < 0 ||
      ctx.condtd.empty() || ctx.spawn.empty() || work.empty()) {
    return Usage();
  }

  ctx.dir = work + "/" + ctx.workload->name;
  std::error_code error;
  std::filesystem::create_directories(ctx.dir, error);
  if (error || ::chdir(ctx.dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use work dir %s\n",
                 ctx.dir.c_str());
    return 1;
  }
  PinToOneCpu();
  ctx.docs = ctx.workload->make_docs(ctx.seed);
  Report report;
  Status written = WriteCorpus(&ctx);
  if (report.Check(written.ok(), written.ToString())) {
    if (trace == 1) {
      RunTraced(&ctx, &report);
    } else {
      RunEndToEnd(&ctx, &report);
    }
  }
  PrintReport(ctx, trace == 1, report);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace condtd

int main(int argc, char** argv) {
  return condtd::perfbench::Main(argc, argv);
}
