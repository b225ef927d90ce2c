// condtd — command-line DTD/XSD inference and validation.
//
//   condtd infer [options] file.xml...      infer a schema from documents
//       --xsd                 emit an XML Schema instead of a DTD
//       --algorithm=NAME      learner selection; any name registered in
//                             LearnerRegistry works (auto, idtd, crx,
//                             rewrite, and the Section 8 baselines
//                             trang and xtract)
//       --noise=N             support threshold for noisy data
//       --jobs=N              ingest and infer on N >= 1 threads
//                             (sharded pipeline; output identical to
//                             the default N=1, which spawns no thread)
//       --out=FILE            write the schema to FILE instead of stdout
//       --state-in=FILE       resume from a saved summary state
//       --state-out=FILE      save the summary state after folding
//                             (incremental pipelines: keep the state,
//                             discard the XML — Section 9)
//       --stats[=json|text]   enable the observability layer and print a
//                             pipeline report (counters, per-stage and
//                             per-learner timings) to stderr on exit;
//                             bare --stats means text. Counter values
//                             are deterministic at any --jobs; wall
//                             times are not (see src/obs/report.h)
//   condtd validate --schema=file.dtd file.xml...
//                                           validate documents; a missing
//                                           --schema uses each document's
//                                           internal DOCTYPE subset
//   condtd regex "expr" word...             membership tests for a paper-
//                                           notation RE over 1-letter
//                                           symbols (debug aid)
//   condtd stats file.dtd...                classify every content model
//                                           (SORE? CHARE? deterministic?)
//                                           — the paper's [10] study
//   condtd gen --schema=file.dtd [--count=N] [--seed=S] [--prefix=P] [--unordered]
//                                           generate N random documents
//                                           valid for the DTD (ToXgene
//                                           substitute); files P0.xml...
//   condtd serve (--socket=PATH | --port=N) [--data-dir=DIR] ...
//                                           run the multi-tenant
//                                           incremental inference daemon
//                                           (wire protocol: serve/wire.h)
//   condtd client (--socket=PATH | --port=N) <cmd> ...
//                                           talk to a running daemon

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/file.h"
#include "base/rng.h"
#include "base/strings.h"
#include "gen/xml_gen.h"
#include "xsd/parser.h"
#include "dtd/diff.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "dtd/validator.h"
#include "infer/contextual.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "io/input_buffer.h"
#include "learn/learner.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "regex/determinism.h"
#include "regex/matcher.h"
#include "regex/parser.h"
#include "regex/properties.h"
#include "serve/client.h"
#include "serve/server.h"
#include "xml/parser.h"

namespace condtd {
namespace {

int Usage() {
  std::string algorithms =
      LearnerRegistry::Global().NamesForDisplay("|");
  std::fprintf(
      stderr,
      "usage:\n"
      "  condtd infer [--xsd] [--algorithm=%s]\n"
      "               [--noise=N] [--jobs=N] [--max-strings=N]\n"
      "               [--batch-docs=N] [--no-mmap]\n"
      "               [--out=FILE] [--stats[=json|text]]\n"
      "               [--state-in=FILE] [--state-out=FILE] file.xml...\n"
      "  condtd validate [--schema=file.dtd] file.xml...\n"
      "  condtd regex \"expr\" word...\n"
      "  condtd stats file.dtd...\n"
      "  condtd gen --schema=file.dtd [--count=N] [--seed=S] "
      "[--prefix=P] [--unordered]\n"
      "  condtd context [--xsd] [--algorithm=NAME] [--noise=N] [--lenient]\n"
      "               file.xml...\n"
      "  condtd diff left.dtd right.dtd   (exit 0 iff language-equal)\n"
      "  condtd serve (--socket=PATH | --port=N) [--data-dir=DIR]\n"
      "               [--workers=N] [--snapshot-every=N] [--no-fsync]\n"
      "               [--max-corpus-bytes=N] [--replay-jobs=N]\n"
      "               [--compact-journal-bytes=N] [--corpus-ttl=SECONDS]\n"
      "               [--max-corpora=N] [--max-inline-bytes=N]\n"
      "               [--http-port=N] [--http-host=HOST]\n"
      "               [--algorithm=NAME] [--noise=N] [--lenient]\n"
      "  condtd client (--socket=PATH | --port=N) <cmd>\n"
      "               cmd: ping | ingest <corpus> file.xml... |\n"
      "                    query <corpus> [--algorithm=NAME] [--xsd] |\n"
      "                    snapshot [<corpus>] | stats | shutdown\n",
      algorithms.c_str());
  return 2;
}

bool GetFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Strict numeric flag conversion: rejects junk ("12x"), empty values
/// and anything below `min` with a message naming the flag. std::atoi's
/// silent 0 previously turned "--jobs=abc" into an accidental default.
bool ParseCountFlag(const char* flag, const std::string& value, int min,
                    int* out) {
  int32_t parsed = 0;
  if (!ParseInt32(value, &parsed) || parsed < min) {
    std::fprintf(stderr, "--%s=%s: expected an integer >= %d\n", flag,
                 value.c_str(), min);
    return false;
  }
  *out = parsed;
  return true;
}

/// The learner flags `infer`, `context` and `serve` share:
/// --algorithm=NAME, --noise=N and --lenient.
enum class LearnerFlag { kNotMine, kParsed, kBad };

/// Applies `arg` to `options` when it is a learner flag. A bad value
/// prints why and returns kBad (the caller exits 2).
LearnerFlag ParseLearnerFlag(const std::string& arg,
                             InferenceOptions* options) {
  std::string value;
  if (arg == "--lenient") {
    options->lenient_xml = true;
  } else if (GetFlag(arg, "algorithm", &value)) {
    if (LearnerRegistry::Global().Find(value) == nullptr) {
      std::fprintf(stderr, "unknown algorithm '%s' (registered: %s)\n",
                   value.c_str(),
                   LearnerRegistry::Global().NamesForDisplay(", ").c_str());
      return LearnerFlag::kBad;
    }
    options->learner = value;
  } else if (GetFlag(arg, "noise", &value)) {
    if (!ParseCountFlag("noise", value, 0,
                        &options->noise_symbol_threshold)) {
      return LearnerFlag::kBad;
    }
    options->idtd.noise_edge_threshold = options->noise_symbol_threshold;
  } else {
    return LearnerFlag::kNotMine;
  }
  return LearnerFlag::kParsed;
}

/// Prints the observability report to stderr when RunInfer leaves scope
/// — any exit path, success or failure, produces the report (stderr so
/// the schema on stdout stays clean for pipelines).
struct StatsReporter {
  enum class Mode { kOff, kText, kJson };
  Mode mode = Mode::kOff;
  ~StatsReporter() {
    if (mode == Mode::kOff) return;
    std::string report = mode == Mode::kJson
                             ? RenderStatsJson(obs::SnapshotStats())
                             : RenderStatsText(obs::SnapshotStats());
    std::fputs(report.c_str(), stderr);
  }
};

int RunInfer(const std::vector<std::string>& args) {
  InferenceOptions options;
  InputBuffer::Options input_options;
  bool emit_xsd = false;
  int jobs = 1;
  std::string out_path;
  std::string state_in;
  std::string state_out;
  std::vector<std::string> files;
  StatsReporter stats;
  for (const std::string& arg : args) {
    LearnerFlag learner_flag = ParseLearnerFlag(arg, &options);
    if (learner_flag == LearnerFlag::kBad) return 2;
    if (learner_flag == LearnerFlag::kParsed) continue;
    std::string value;
    if (arg == "--xsd") {
      emit_xsd = true;
    } else if (arg == "--no-mmap") {
      input_options.allow_mmap = false;
    } else if (GetFlag(arg, "batch-docs", &value)) {
      if (!ParseCountFlag("batch-docs", value, 1, &options.batch_docs)) {
        return 2;
      }
    } else if (arg == "--stats") {
      stats.mode = StatsReporter::Mode::kText;
    } else if (GetFlag(arg, "stats", &value)) {
      if (value == "json") {
        stats.mode = StatsReporter::Mode::kJson;
      } else if (value == "text") {
        stats.mode = StatsReporter::Mode::kText;
      } else {
        std::fprintf(stderr, "--stats=%s: expected 'json' or 'text'\n",
                     value.c_str());
        return 2;
      }
    } else if (GetFlag(arg, "jobs", &value)) {
      if (!ParseCountFlag("jobs", value, 1, &jobs)) return 2;
    } else if (GetFlag(arg, "state-in", &value)) {
      state_in = value;
    } else if (GetFlag(arg, "state-out", &value)) {
      state_out = value;
    } else if (GetFlag(arg, "max-strings", &value)) {
      if (!ParseCountFlag("max-strings", value, 1,
                          &options.xtract.max_strings)) {
        return 2;
      }
    } else if (GetFlag(arg, "out", &value)) {
      out_path = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && state_in.empty()) {
    std::fprintf(stderr,
                 "infer: no input files (pass file.xml arguments or "
                 "--state-in=FILE)\n");
    return 2;
  }
  if (stats.mode != StatsReporter::Mode::kOff) {
    obs::EnableStats(true);
    obs::ResetStats();
    obs::GaugeSet(obs::Gauge::kJobs, jobs);
  }

  // One batch engine for every job count: --jobs only sets how many
  // threads fold and merge the shards (1 spawns none). The inferred
  // schema is byte-identical at any value, so the flag is purely about
  // throughput.
  IngestEngine::Options engine_options;
  engine_options.inference = options;
  engine_options.input = input_options;
  engine_options.jobs = jobs;
  IngestEngine engine(engine_options);
  if (!state_in.empty()) {
    Result<std::string> state = ReadFileToString(state_in);
    if (!state.ok()) {
      std::fprintf(stderr, "%s: %s\n", state_in.c_str(),
                   state.status().ToString().c_str());
      return 1;
    }
    Status status = engine.LoadState(state.value());
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", state_in.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& path : files) {
    // Path-only hand-off: the engine opens the file itself (mmap or
    // buffered; worker-side with several jobs, overlapping I/O with
    // parsing). Failures surface through errors() after Finish().
    engine.AddFile(path);
  }
  if (!engine.Finish().ok()) {
    // One line per failed document, in submission order — not just the
    // first failure.
    for (const auto& error : engine.errors()) {
      if (error.doc_index >= 0 &&
          static_cast<size_t>(error.doc_index) < files.size()) {
        std::fprintf(stderr, "%s: %s\n", files[error.doc_index].c_str(),
                     error.status.ToString().c_str());
      } else {
        std::fprintf(stderr, "document %lld: %s\n",
                     static_cast<long long>(error.doc_index),
                     error.status.ToString().c_str());
      }
    }
    std::fprintf(stderr, "infer: %zu of %zu documents failed\n",
                 engine.errors().size(), files.size());
    return 1;
  }
  DtdInferrer& inferrer = engine.inferrer();
  int infer_threads = engine.infer_threads();
  if (!state_out.empty()) {
    Status status = WriteStringToFile(state_out, inferrer.SaveState());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::string schema;
  if (emit_xsd) {
    Result<std::string> xsd = inferrer.InferXsd(infer_threads);
    if (!xsd.ok()) {
      std::fprintf(stderr, "inference failed: %s\n",
                   xsd.status().ToString().c_str());
      return 1;
    }
    schema = xsd.value();
  } else {
    Result<Dtd> dtd = inferrer.InferDtd(infer_threads);
    if (!dtd.ok()) {
      std::fprintf(stderr, "inference failed: %s\n",
                   dtd.status().ToString().c_str());
      return 1;
    }
    obs::StageSpan span(obs::Stage::kEmit);
    schema = WriteDtd(dtd.value(), *inferrer.alphabet());
  }
  if (out_path.empty()) {
    std::fputs(schema.c_str(), stdout);
  } else {
    Status status = WriteStringToFile(out_path, schema);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int RunValidate(const std::vector<std::string>& args) {
  std::string schema_path;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    std::string value;
    if (GetFlag(arg, "schema", &value)) {
      schema_path = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  Alphabet alphabet;
  Dtd external;
  bool have_external = false;
  if (!schema_path.empty()) {
    Result<std::string> content = ReadFileToString(schema_path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s: %s\n", schema_path.c_str(),
                   content.status().ToString().c_str());
      return 1;
    }
    // XSDs are accepted too: sniff for an xs:schema root and lower the
    // schema to its DTD-equivalent model.
    bool is_xsd =
        content->find("<xs:schema") != std::string::npos ||
        content->find(":schema") != std::string::npos ||
        EndsWith(schema_path, ".xsd");
    Result<Dtd> dtd = is_xsd ? ParseXsd(content.value(), &alphabet)
                             : ParseDtd(content.value(), &alphabet);
    if (!dtd.ok()) {
      std::fprintf(stderr, "%s: %s\n", schema_path.c_str(),
                   dtd.status().ToString().c_str());
      return 1;
    }
    external = dtd.value();
    have_external = true;
  }

  int failures = 0;
  for (const std::string& path : files) {
    Result<std::string> content = ReadFileToString(path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   content.status().ToString().c_str());
      ++failures;
      continue;
    }
    Result<XmlDocument> doc = ParseXml(content.value());
    if (!doc.ok()) {
      std::printf("%s: not well-formed: %s\n", path.c_str(),
                  doc.status().ToString().c_str());
      ++failures;
      continue;
    }
    Dtd dtd;
    if (have_external) {
      dtd = external;
    } else if (!doc->doctype.empty()) {
      Result<Dtd> internal = ParseDoctype(doc->doctype, &alphabet);
      if (!internal.ok()) {
        std::printf("%s: bad DOCTYPE: %s\n", path.c_str(),
                    internal.status().ToString().c_str());
        ++failures;
        continue;
      }
      dtd = internal.value();
    } else {
      std::printf("%s: no --schema given and no DOCTYPE present\n",
                  path.c_str());
      ++failures;
      continue;
    }
    ValidationReport report = Validate(doc.value(), dtd, &alphabet);
    for (const ValidationIssue& warning : report.warnings) {
      std::printf("%s: warning: <%s>: %s\n", path.c_str(),
                  warning.element.c_str(), warning.message.c_str());
    }
    if (report.valid()) {
      std::printf("%s: valid (%d elements)\n", path.c_str(),
                  report.elements_checked);
    } else {
      for (const ValidationIssue& issue : report.issues) {
        std::printf("%s: <%s>: %s\n", path.c_str(), issue.element.c_str(),
                    issue.message.c_str());
      }
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunRegex(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  Alphabet alphabet;
  RegexParseOptions parse_options;
  parse_options.char_symbols = true;
  Result<ReRef> re = ParseRegex(args[0], &alphabet, parse_options);
  if (!re.ok()) {
    std::fprintf(stderr, "%s\n", re.status().ToString().c_str());
    return 1;
  }
  Matcher matcher(re.value());
  std::printf("parsed: %s\n",
              ToString(re.value(), alphabet, PrintStyle::kPaper).c_str());
  for (size_t i = 1; i < args.size(); ++i) {
    Word word = alphabet.WordFromChars(args[i]);
    std::printf("%-20s %s\n", args[i].c_str(),
                matcher.Matches(word) ? "accepted" : "rejected");
  }
  return 0;
}

int RunStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  int total = 0;
  int trivial = 0;
  int sores = 0;
  int chares = 0;
  int deterministic = 0;
  for (const std::string& path : args) {
    Result<std::string> content = ReadFileToString(path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   content.status().ToString().c_str());
      return 1;
    }
    Alphabet alphabet;
    Result<Dtd> dtd = ParseDtd(content.value(), &alphabet);
    if (!dtd.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   dtd.status().ToString().c_str());
      return 1;
    }
    for (const auto& [symbol, model] : dtd->elements) {
      if (model.kind != ContentKind::kChildren) {
        ++trivial;
        continue;
      }
      ++total;
      bool sore = IsSore(model.regex);
      bool chare = IsChare(model.regex);
      bool det = IsDeterministic(model.regex);
      sores += sore;
      chares += chare;
      deterministic += det;
      std::printf("%s: %-20s %s  [%s%s]\n", path.c_str(),
                  alphabet.Name(symbol).c_str(),
                  ContentModelToString(model, alphabet).c_str(),
                  chare ? "CHARE" : (sore ? "SORE" : "general"),
                  det ? ", deterministic" : ", NOT deterministic");
    }
  }
  if (total > 0) {
    std::printf(
        "\n%d non-trivial content models (%d trivial): %.0f%% SOREs, "
        "%.0f%% CHAREs, %.0f%% deterministic\n",
        total, trivial, 100.0 * sores / total, 100.0 * chares / total,
        100.0 * deterministic / total);
  } else {
    std::printf("no non-trivial content models (%d trivial)\n", trivial);
  }
  return 0;
}

int RunDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  Alphabet alphabet;
  Dtd dtds[2];
  for (int i = 0; i < 2; ++i) {
    Result<std::string> content = ReadFileToString(args[i]);
    if (!content.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   content.status().ToString().c_str());
      return 1;
    }
    bool is_xsd = content->find(":schema") != std::string::npos ||
                  EndsWith(args[i], ".xsd");
    Result<Dtd> dtd = is_xsd ? ParseXsd(content.value(), &alphabet)
                             : ParseDtd(content.value(), &alphabet);
    if (!dtd.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   dtd.status().ToString().c_str());
      return 1;
    }
    dtds[i] = dtd.value();
  }
  DtdDiff diff = CompareDtds(dtds[0], dtds[1]);
  std::fputs(DiffToString(diff, dtds[0], dtds[1], alphabet).c_str(),
             stdout);
  return diff.Identical() ? 0 : 1;
}

int RunContext(const std::vector<std::string>& args) {
  InferenceOptions options;
  bool emit_xsd = false;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    LearnerFlag learner_flag = ParseLearnerFlag(arg, &options);
    if (learner_flag == LearnerFlag::kBad) return 2;
    if (learner_flag == LearnerFlag::kParsed) continue;
    if (arg == "--xsd") {
      emit_xsd = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();
  ContextualInferrer inferrer(options);
  for (const std::string& path : files) {
    Result<std::string> content = ReadFileToString(path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   content.status().ToString().c_str());
      return 1;
    }
    Status status = inferrer.AddXml(content.value());
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  if (emit_xsd) {
    Result<std::string> xsd = inferrer.InferLocalXsd();
    if (!xsd.ok()) {
      std::fprintf(stderr, "%s\n", xsd.status().ToString().c_str());
      return 1;
    }
    std::fputs(xsd->c_str(), stdout);
    return 0;
  }
  Result<ContextualInferrer::Report> report = inferrer.Infer();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(inferrer.ReportToString(report.value()).c_str(), stdout);
  return 0;
}

int RunGen(const std::vector<std::string>& args) {
  std::string schema_path;
  std::string prefix = "doc";
  int count = 10;
  uint64_t seed = 20060912;
  XmlGenOptions gen_options;
  for (const std::string& arg : args) {
    std::string value;
    if (arg == "--unordered") {
      gen_options.unordered = true;
    } else if (GetFlag(arg, "schema", &value)) {
      schema_path = value;
    } else if (GetFlag(arg, "count", &value)) {
      if (!ParseCountFlag("count", value, 1, &count)) return 2;
    } else if (GetFlag(arg, "seed", &value)) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0) {
        std::fprintf(stderr, "--seed=%s: expected a non-negative integer\n",
                     value.c_str());
        return 2;
      }
      seed = static_cast<uint64_t>(parsed);
    } else if (GetFlag(arg, "prefix", &value)) {
      prefix = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (schema_path.empty() || count <= 0) return Usage();
  Result<std::string> content = ReadFileToString(schema_path);
  if (!content.ok()) {
    std::fprintf(stderr, "%s: %s\n", schema_path.c_str(),
                 content.status().ToString().c_str());
    return 1;
  }
  Alphabet alphabet;
  Result<Dtd> dtd = ParseDtd(content.value(), &alphabet);
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s: %s\n", schema_path.c_str(),
                 dtd.status().ToString().c_str());
    return 1;
  }
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    Result<XmlDocument> doc =
        GenerateDocument(dtd.value(), alphabet, &rng, gen_options);
    if (!doc.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    std::string path = prefix + std::to_string(i) + ".xml";
    Status status = WriteStringToFile(path, doc->ToXml());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("%s\n", path.c_str());
  }
  return 0;
}

/// Shared listener-address flags for `serve` and `client`.
struct EndpointFlags {
  std::string socket_path;
  std::string host = "127.0.0.1";
  int port = -1;

  /// Consumes --socket/--port/--host; returns false for other args.
  bool Parse(const std::string& arg, bool* bad) {
    std::string value;
    *bad = false;
    if (GetFlag(arg, "socket", &value)) {
      socket_path = value;
      return true;
    }
    if (GetFlag(arg, "port", &value)) {
      if (!ParseCountFlag("port", value, 0, &port)) *bad = true;
      return true;
    }
    if (GetFlag(arg, "host", &value)) {
      host = value;
      return true;
    }
    return false;
  }

  bool configured() const { return !socket_path.empty() || port >= 0; }
};

int RunServe(const std::vector<std::string>& args) {
  serve::ServerOptions options;
  EndpointFlags endpoint;
  StatsReporter stats;
  for (const std::string& arg : args) {
    LearnerFlag learner_flag =
        ParseLearnerFlag(arg, &options.corpus.inference);
    if (learner_flag == LearnerFlag::kBad) return 2;
    if (learner_flag == LearnerFlag::kParsed) continue;
    std::string value;
    bool bad = false;
    if (endpoint.Parse(arg, &bad)) {
      if (bad) return 2;
    } else if (GetFlag(arg, "data-dir", &value)) {
      options.corpus.data_dir = value;
    } else if (GetFlag(arg, "workers", &value)) {
      if (!ParseCountFlag("workers", value, 1, &options.workers)) return 2;
    } else if (GetFlag(arg, "replay-jobs", &value)) {
      if (!ParseCountFlag("replay-jobs", value, 1,
                          &options.corpus.replay_jobs)) {
        return 2;
      }
    } else if (arg == "--no-fsync") {
      options.corpus.fsync_journal = false;
    } else if (GetFlag(arg, "snapshot-every", &value)) {
      if (!ParseCountFlag("snapshot-every", value, 0,
                          &options.corpus.snapshot_every)) {
        return 2;
      }
    } else if (GetFlag(arg, "max-corpus-bytes", &value)) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0) {
        std::fprintf(stderr,
                     "--max-corpus-bytes=%s: expected an integer >= 0\n",
                     value.c_str());
        return 2;
      }
      options.corpus.max_corpus_bytes = parsed;
    } else if (GetFlag(arg, "compact-journal-bytes", &value)) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0) {
        std::fprintf(
            stderr,
            "--compact-journal-bytes=%s: expected an integer >= 0\n",
            value.c_str());
        return 2;
      }
      options.corpus.compact_journal_bytes = parsed;
    } else if (GetFlag(arg, "corpus-ttl", &value)) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0) {
        std::fprintf(stderr,
                     "--corpus-ttl=%s: expected seconds >= 0\n",
                     value.c_str());
        return 2;
      }
      options.corpus_ttl_seconds = parsed;
    } else if (GetFlag(arg, "max-corpora", &value)) {
      if (!ParseCountFlag("max-corpora", value, 0, &options.max_corpora)) {
        return 2;
      }
    } else if (GetFlag(arg, "max-inline-bytes", &value)) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed <= 0) {
        std::fprintf(stderr,
                     "--max-inline-bytes=%s: expected an integer > 0\n",
                     value.c_str());
        return 2;
      }
      options.max_inline_bytes = parsed;
    } else if (GetFlag(arg, "http-port", &value)) {
      if (!ParseCountFlag("http-port", value, 0, &options.http_port)) {
        return 2;
      }
    } else if (GetFlag(arg, "http-host", &value)) {
      options.http_host = value;
    } else if (arg == "--stats") {
      stats.mode = StatsReporter::Mode::kText;
    } else if (GetFlag(arg, "stats", &value)) {
      if (value == "json") {
        stats.mode = StatsReporter::Mode::kJson;
      } else if (value == "text") {
        stats.mode = StatsReporter::Mode::kText;
      } else {
        std::fprintf(stderr, "--stats=%s: expected 'json' or 'text'\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!endpoint.configured()) {
    std::fprintf(stderr,
                 "serve: no listener (pass --socket=PATH or --port=N; "
                 "--port=0 picks a free port)\n");
    return 2;
  }
  options.unix_socket = endpoint.socket_path;
  options.tcp_port = endpoint.port;
  options.tcp_host = endpoint.host;

  // The daemon always runs instrumented: the STATS command embeds the
  // process-level observability report.
  obs::EnableStats(true);
  obs::ResetStats();

  const std::string http_host = options.http_host;
  serve::Server server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 1;
  }
  // The readiness line: scripts wait for it (and read the bound port
  // from it when --port=0 picked one).
  if (!endpoint.socket_path.empty()) {
    std::printf("condtd serve listening on %s\n",
                endpoint.socket_path.c_str());
  } else {
    std::printf("condtd serve listening on %s:%d\n",
                endpoint.host.c_str(), server.port());
  }
  if (server.http_port() >= 0) {
    std::printf("condtd serve metrics on http://%s:%d/metrics\n",
                http_host.c_str(), server.http_port());
  }
  std::fflush(stdout);
  server.Wait();
  std::printf("condtd serve shut down\n");
  return 0;
}

int RunClient(const std::vector<std::string>& args) {
  EndpointFlags endpoint;
  std::string algorithm;
  bool xsd = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    std::string value;
    bool bad = false;
    if (endpoint.Parse(arg, &bad)) {
      if (bad) return 2;
    } else if (GetFlag(arg, "algorithm", &value)) {
      algorithm = value;
    } else if (arg == "--xsd") {
      xsd = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (!endpoint.configured() || positional.empty()) return Usage();

  Result<serve::Client> connected =
      endpoint.socket_path.empty()
          ? serve::Client::ConnectTcp(endpoint.host, endpoint.port)
          : serve::Client::ConnectUnix(endpoint.socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "client: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  serve::Client client = std::move(*connected);

  const std::string& command = positional[0];
  auto print = [](const Result<std::string>& response) {
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    std::fputs(response->c_str(), stdout);
    if (response->empty() || response->back() != '\n') {
      std::fputc('\n', stdout);
    }
    return 0;
  };

  if (command == "ping" && positional.size() == 1) {
    return print(client.Ping());
  }
  if (command == "ingest" && positional.size() >= 3) {
    // Documents are read client-side and shipped inline, so the daemon
    // never needs filesystem access to the client's paths.
    const std::string& corpus = positional[1];
    int failures = 0;
    for (size_t i = 2; i < positional.size(); ++i) {
      Result<std::string> content = ReadFileToString(positional[i]);
      if (!content.ok()) {
        std::fprintf(stderr, "%s: %s\n", positional[i].c_str(),
                     content.status().ToString().c_str());
        ++failures;
        continue;
      }
      Result<std::string> response =
          client.IngestInline(corpus, *content);
      if (!response.ok()) {
        std::fprintf(stderr, "%s: %s\n", positional[i].c_str(),
                     response.status().ToString().c_str());
        ++failures;
        continue;
      }
      std::printf("%s: %s\n", positional[i].c_str(), response->c_str());
    }
    return failures == 0 ? 0 : 1;
  }
  if (command == "query" && positional.size() == 2) {
    return print(client.Query(positional[1], algorithm, xsd));
  }
  if (command == "snapshot" && positional.size() <= 2) {
    return print(
        client.Snapshot(positional.size() == 2 ? positional[1] : ""));
  }
  if (command == "stats" && positional.size() == 1) {
    return print(client.Stats());
  }
  if (command == "shutdown" && positional.size() == 1) {
    return print(client.Shutdown());
  }
  std::fprintf(stderr,
               "client: unknown command (want ping, ingest <corpus> "
               "file..., query <corpus>, snapshot [<corpus>], stats or "
               "shutdown)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "infer") return RunInfer(args);
  if (command == "validate") return RunValidate(args);
  if (command == "regex") return RunRegex(args);
  if (command == "stats") return RunStats(args);
  if (command == "gen") return RunGen(args);
  if (command == "context") return RunContext(args);
  if (command == "diff") return RunDiff(args);
  if (command == "serve") return RunServe(args);
  if (command == "client") return RunClient(args);
  return Usage();
}

}  // namespace
}  // namespace condtd

int main(int argc, char** argv) { return condtd::Main(argc, argv); }
