// The traced run: each workload's seeded inputs replayed in-process
// through the public entry points of every layer on the measured paths,
// with spans recorded by the harness around each call (the program
// itself carries no spans). Batch figures are busy time per pass over
// the corpus; serve figures are per-operation p50s. Traced units of the
// primary phase alternate with untraced ones, and the difference of
// their medians is the tracing overhead.

#include <array>
#include <cstdio>
#include <map>

#include "dtd/dtd_writer.h"
#include "harness.h"
#include "infer/inferrer.h"
#include "infer/session.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"
#include "learn/learner.h"
#include "regex/properties.h"
#include "serve/corpus.h"
#include "serve/journal.h"
#include "xml/sax.h"

namespace condtd {
namespace perfbench {
namespace {

constexpr int kRounds = 3;
constexpr int kRecoveries = 5;
/// The scratch journal restarts past this size, outside any span.
constexpr int64_t kScratchJournalBytes = int64_t{64} << 20;

enum Name {
  kPass, kDoc, kIoOpen, kXmlLex, kInferFold, kInferFlush,
  kLearn, kLearnIdtd, kLearnCrx, kLearnElement, kDtdWrite,
  kIngest, kSessionIngest, kCorpusIngest, kJournalAppend,
  kQuery, kSnapshot, kLoadState, kCorpusQuery, kRecover,
  kNumNames,
};

const char* const kNames[kNumNames] = {
    "pass", "doc", "io.open", "xml.lex", "infer.fold", "infer.flush",
    "learn", "learn.idtd", "learn.crx", "learn.element", "dtd.write",
    "ingest", "infer.session_ingest", "serve.corpus_ingest",
    "serve.journal_append",
    "query", "infer.snapshot", "infer.load_state", "serve.corpus_query",
    "serve.recover",
};

using Totals = std::array<int64_t, kNumNames>;

/// Span recorder. A span's parent is the span open when it began; spans
/// of one request (a document, an INGEST, a QUERY, a pass) share its id.
/// Busy and self time accumulate per name for every span; the spans
/// themselves are kept in memory up to kMaxKeptSpans and written out at
/// the end. Disabled, it records nothing and every duration reads 0.
class Tracer {
 public:
  bool enabled = true;

  void Begin(int name, int64_t request) {
    int32_t kept = -1;
    if (spans_.size() < kMaxKeptSpans) {
      kept = static_cast<int32_t>(spans_.size());
      spans_.push_back({name, open_.empty() ? -1 : open_.back().kept,
                        request, 0, 0});
    }
    open_.push_back({name, kept, 0, NowNs()});
    if (kept >= 0) spans_[kept].start_ns = open_.back().start_ns;
  }

  /// Ends the innermost open span; returns its duration.
  int64_t End() {
    int64_t end_ns = NowNs();
    Open span = open_.back();
    open_.pop_back();
    int64_t duration = end_ns - span.start_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    if (span.kept >= 0) spans_[span.kept].end_ns = end_ns;
    ++count_[span.name];
    busy_[span.name] += duration;
    self_[span.name] += duration - span.child_ns;
    unit_busy_[span.name] += duration;
    return duration;
  }

  /// Busy time per name since the last call (one pass or one query).
  Totals TakeUnitBusy() {
    Totals busy = unit_busy_;
    unit_busy_ = {};
    return busy;
  }

  size_t recorded() const {
    size_t total = 0;
    for (int64_t c : count_) total += static_cast<size_t>(c);
    return total;
  }

  /// Per name over the whole run: spans, busy time, self time (busy
  /// minus the time its child spans cover) and busy time per span.
  void PrintProfile() const {
    std::printf("  %-22s %9s %12s %12s %12s\n", "span", "count", "busy_ms",
                "self_ms", "ms_per_span");
    for (int n = 0; n < kNumNames; ++n) {
      if (count_[n] == 0) continue;
      std::printf("  %-22s %9lld %12.3f %12.3f %12.5f\n", kNames[n],
                  static_cast<long long>(count_[n]), Ms(busy_[n]),
                  Ms(self_[n]),
                  Ms(busy_[n]) / static_cast<double>(count_[n]));
    }
  }

  bool Write(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "name,start_ns,end_ns,parent,request\n");
    for (const Span& span : spans_) {
      std::fprintf(out, "%s,%lld,%lld,%d,%lld\n", kNames[span.name],
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<long long>(span.request));
    }
    return std::fclose(out) == 0;
  }

  size_t kept() const { return spans_.size(); }

 private:
  /// Caps the in-memory log (32 bytes a span) on the long replays.
  static constexpr size_t kMaxKeptSpans = 250000;

  struct Span {
    int name;
    int32_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    int name;
    int32_t kept;
    int64_t child_ns;
    int64_t start_ns;
  };

  std::vector<Span> spans_;
  std::vector<Open> open_;
  Totals count_{}, busy_{}, self_{}, unit_busy_{};
};

/// One span, ended by Stop() or at scope exit; scopes nest strictly.
class Scope {
 public:
  Scope(Tracer* tracer, int name, int64_t request)
      : tracer_(tracer->enabled ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name, request);
  }
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int64_t Stop() {
    if (tracer_ == nullptr) return 0;
    int64_t ns = tracer_->End();
    tracer_ = nullptr;
    return ns;
  }

 private:
  Tracer* tracer_;
};

struct LearnFigures {
  int64_t elements = 0;
  int64_t tokens = 0;
  int64_t max_element_ns = 0;
};

/// DtdInferrer::InferContentModel per element, grouped by the learner
/// AutoPolicy::Pick routes it to.
LearnFigures Learn(const DtdInferrer& inferrer, Tracer* tracer,
                   int64_t request, Report* report) {
  AutoPolicy policy(inferrer.options().auto_idtd_min_words);
  std::vector<Symbol> idtd, crx;
  for (Symbol element : inferrer.Elements()) {
    const ElementSummary* summary = inferrer.summaries().Find(element);
    (policy.Pick(*summary).name() == "crx" ? crx : idtd).push_back(element);
  }
  LearnFigures figures;
  Scope learn(tracer, kLearn, request);
  for (int group = 0; group < 2; ++group) {
    Scope by_learner(tracer, group == 0 ? kLearnIdtd : kLearnCrx, request);
    for (Symbol element : group == 0 ? idtd : crx) {
      Scope one(tracer, kLearnElement, request);
      Result<ContentModel> model = inferrer.InferContentModel(element);
      figures.max_element_ns = std::max(figures.max_element_ns, one.Stop());
      if (!model.ok()) {
        report->CheckStatus(model.status(), "learning");
        continue;
      }
      ++figures.elements;
      if (model->kind == ContentKind::kChildren) {
        figures.tokens += CountTokens(model->regex);
      }
    }
  }
  return figures;
}

/// The DTD text InferDtd assembles from the same inferrer. Learning runs
/// again here, outside every span but the enclosing pass or query.
std::string AssembleDtd(const DtdInferrer& inferrer, Tracer* tracer,
                        int64_t request, Report* report) {
  Result<Dtd> dtd = inferrer.InferDtd();
  if (!report->Check(dtd.ok(), "InferDtd failed")) return "";
  Scope write(tracer, kDtdWrite, request);
  return WriteDtd(*dtd, inferrer.alphabet());
}

struct PassFigures {
  Totals ns{};
  int64_t wall_ns = 0;
  int64_t bytes = 0;
  int64_t events = 0;
  int64_t words = 0;
  int64_t distinct_words = 0;
  double dedup_hit_ratio = 0;
  LearnFigures learn;
  std::string dtd;
};

/// One pass of what `condtd infer` does at its defaults: open, lex and
/// fold every file, flush, learn every element, write the DTD. Each
/// document is also lexed on its own (xml.lex) before the fold, which
/// lexes it again: fold self time = infer.fold - xml.lex.
PassFigures BatchPass(const Context& ctx, Tracer* tracer, int64_t request,
                      Report* report) {
  PassFigures figures;
  tracer->TakeUnitBusy();
  int64_t start = NowNs();
  {
    Scope pass(tracer, kPass, request);
    DtdInferrer inferrer;
    StreamingFolder folder(&inferrer);
    SaxLexer lexer;
    for (size_t i = 0; i < ctx.files.size(); ++i) {
      const int64_t doc_id = static_cast<int64_t>(i);
      Scope doc(tracer, kDoc, doc_id);
      Scope open(tracer, kIoOpen, doc_id);
      Result<InputBuffer> input = InputBuffer::Open(ctx.files[i]);
      open.Stop();
      if (!report->CheckStatus(input.status(), ctx.files[i])) return figures;
      std::string_view view = input->view();
      figures.bytes += static_cast<int64_t>(view.size());
      Scope lex(tracer, kXmlLex, doc_id);
      lexer.Reset(view);
      Result<SaxEvent> event = lexer.Next();
      for (; event.ok() && event->kind != SaxEventKind::kEof;
           event = lexer.Next()) {
        ++figures.events;
      }
      lex.Stop();
      if (!report->CheckStatus(event.status(), ctx.files[i])) return figures;
      Scope fold(tracer, kInferFold, doc_id);
      Status folded = folder.AddXml(view);
      fold.Stop();
      if (!report->CheckStatus(folded, ctx.files[i])) return figures;
    }
    figures.words = folder.words_folded();
    figures.distinct_words = folder.distinct_words_cached();
    Scope flush(tracer, kInferFlush, request);
    folder.Flush();
    flush.Stop();
    int64_t probes = folder.dedup_hits() + folder.dedup_misses();
    figures.dedup_hit_ratio =
        probes > 0 ? static_cast<double>(folder.dedup_hits()) /
                         static_cast<double>(probes)
                   : 0;
    figures.learn = Learn(inferrer, tracer, request, report);
    figures.dtd = AssembleDtd(inferrer, tracer, request, report);
  }
  figures.wall_ns = NowNs() - start;
  figures.ns = tracer->TakeUnitBusy();
  return figures;
}

/// The daemon's two paths without the wire: the write path replayed
/// into a bare IngestSession, a serve::Corpus and a scratch Journal;
/// the read path as IngestSession::Snapshot, DtdInferrer::LoadState,
/// learning and WriteDtd, next to serve::Corpus::Query itself. The
/// session and the corpus start from the same state as the measured
/// daemon.
class ServeReplay {
 public:
  ServeReplay(const Context& ctx, Report* report)
      : ctx_(ctx), report_(report), session_(InferenceOptions()) {}

  bool Open() {
    const bool durable = ctx_.workload->durable;
    serve::Corpus::Options options;
    options.fsync_journal = false;
    if (durable) {
      options.data_dir = ctx_.dir + "/trace-data";
      Status copied = CopyTree(ctx_.dir + "/preseed", options.data_dir);
      if (!report_->Check(copied.ok(), copied.ToString())) return false;
    }
    Result<std::unique_ptr<serve::Corpus>> corpus =
        serve::Corpus::Open("bench", options);
    if (!report_->Check(corpus.ok(), "Corpus::Open failed")) return false;
    corpus_ = std::move(*corpus);
    if (!OpenJournal()) return false;
    for (; seq_ < PreseedDocs(ctx_); ++seq_) {
      const std::string& doc = Doc(seq_);
      bool ok = session_.Ingest(doc).ok() &&
                (durable || corpus_->Ingest(doc).ok());
      if (!report_->Check(ok, "warm-up ingest failed")) return false;
    }
    IndexElementNames();
    return true;
  }

  /// `ingests_per_query` INGESTs and one QUERY; returns its wall time.
  int64_t Window(Tracer* tracer) {
    int64_t start = NowNs();
    for (int i = 0; i < ctx_.workload->ingests_per_query; ++i) {
      Ingest(tracer);
    }
    Query(tracer);
    return NowNs() - start;
  }

  /// Corpus::Open on fresh copies of the pre-seeded dir.
  void Recover(Tracer* tracer) {
    std::string dir = ctx_.dir + "/trace-recover";
    for (int k = 0; k < kRecoveries; ++k) {
      Status copied = CopyTree(ctx_.dir + "/preseed", dir);
      if (!report_->Check(copied.ok(), copied.ToString())) return;
      serve::Corpus::Options options;
      options.data_dir = dir;
      options.fsync_journal = false;
      Scope recover(tracer, kRecover, k);
      Result<std::unique_ptr<serve::Corpus>> corpus =
          serve::Corpus::Open("bench", options);
      recover_ms.push_back(Ms(recover.Stop()));
      report_->Check(corpus.ok(), "recovery of the pre-seeded dir failed");
    }
  }

  int64_t seq() const { return seq_; }
  const std::string& dtd() const { return dtd_; }
  double journal_bytes_per_byte() const {
    return doc_bytes_ > 0 ? static_cast<double>(journal_bytes_) /
                                static_cast<double>(doc_bytes_)
                          : 0;
  }

  std::vector<double> session_ingest_ms, corpus_ingest_ms,
      journal_append_ms, snapshot_ms, state_bytes, load_state_ms,
      corpus_query_ms, touched_share, recover_ms;
  std::vector<double> learn_ms, learn_idtd_ms, learn_crx_ms,
      learn_max_element_ms, learn_elements, learn_tokens, write_ms;

 private:
  const std::string& Doc(int64_t seq) const {
    return ctx_.docs[seq % ctx_.docs.size()];
  }

  bool OpenJournal() {
    std::string path = ctx_.dir + "/trace-journal.log";
    journal_.Close();
    RemoveTree(path);
    Result<serve::Journal> journal = serve::Journal::Open(path, false);
    if (!report_->Check(journal.ok(), "cannot open " + path)) return false;
    journal_ = std::move(*journal);
    return true;
  }

  /// Distinct element names of every document, for the touched share.
  void IndexElementNames() {
    std::map<std::string, int, std::less<>> ids;
    SaxLexer lexer;
    for (const std::string& doc : ctx_.docs) {
      std::vector<int> names;
      lexer.Reset(doc);
      for (;;) {
        Result<SaxEvent> event = lexer.Next();
        if (!event.ok() || event->kind == SaxEventKind::kEof) break;
        if (event->kind != SaxEventKind::kStartElement) continue;
        auto it = ids.try_emplace(std::string(event->name),
                                  static_cast<int>(ids.size())).first;
        names.push_back(it->second);
      }
      doc_names_.push_back(std::move(names));
    }
    touched_.assign(ids.size(), false);
  }

  void Ingest(Tracer* tracer) {
    const bool record = tracer->enabled;
    const std::string& doc = Doc(seq_);
    Scope op(tracer, kIngest, seq_);
    Scope session(tracer, kSessionIngest, seq_);
    Status folded = session_.Ingest(doc);
    int64_t session_ns = session.Stop();
    Scope corpus(tracer, kCorpusIngest, seq_);
    Status ingested = corpus_->Ingest(doc);
    int64_t corpus_ns = corpus.Stop();
    int64_t before = journal_.bytes();
    Scope append(tracer, kJournalAppend, seq_);
    Status appended = journal_.Append(seq_, doc);
    int64_t append_ns = append.Stop();
    op.Stop();
    report_->Check(folded.ok() && ingested.ok() && appended.ok(),
                   "replayed INGEST failed");
    journal_bytes_ += journal_.bytes() - before;
    doc_bytes_ += static_cast<int64_t>(doc.size());
    for (int name : doc_names_[seq_ % ctx_.docs.size()]) {
      touched_[name] = true;
    }
    ++seq_;
    if (record) {
      session_ingest_ms.push_back(Ms(session_ns));
      corpus_ingest_ms.push_back(Ms(corpus_ns));
      journal_append_ms.push_back(Ms(append_ns));
    }
    if (journal_.bytes() > kScratchJournalBytes) OpenJournal();
  }

  void Query(Tracer* tracer) {
    const bool record = tracer->enabled;
    tracer->TakeUnitBusy();
    Scope op(tracer, kQuery, queries_);
    std::string state;
    int64_t epoch = 0;
    Scope snapshot(tracer, kSnapshot, queries_);
    session_.Snapshot(&state, &epoch);
    int64_t snapshot_ns = snapshot.Stop();
    DtdInferrer reader;
    Scope load(tracer, kLoadState, queries_);
    Status loaded = reader.LoadState(state);
    int64_t load_ns = load.Stop();
    if (!report_->Check(loaded.ok(), "LoadState of a snapshot failed")) {
      return;
    }
    LearnFigures learned = Learn(reader, tracer, queries_, report_);
    std::string dtd = AssembleDtd(reader, tracer, queries_, report_);
    Scope query(tracer, kCorpusQuery, queries_);
    Result<std::string> served = corpus_->Query("", false);
    int64_t query_ns = query.Stop();
    op.Stop();
    report_->Check(served.ok() && *served == dtd,
                   "Corpus::Query differs from snapshot + LoadState + "
                   "learn + WriteDtd");
    dtd_ = std::move(dtd);
    size_t touched = 0;
    for (bool t : touched_) touched += t ? 1 : 0;
    size_t elements = reader.Elements().size();
    touched_.assign(touched_.size(), false);
    ++queries_;
    if (!record) return;
    Totals ns = tracer->TakeUnitBusy();
    snapshot_ms.push_back(Ms(snapshot_ns));
    state_bytes.push_back(static_cast<double>(state.size()));
    load_state_ms.push_back(Ms(load_ns));
    corpus_query_ms.push_back(Ms(query_ns));
    touched_share.push_back(elements > 0 ? static_cast<double>(touched) /
                                               static_cast<double>(elements)
                                         : 0);
    learn_ms.push_back(Ms(ns[kLearn]));
    learn_idtd_ms.push_back(Ms(ns[kLearnIdtd]));
    learn_crx_ms.push_back(Ms(ns[kLearnCrx]));
    learn_max_element_ms.push_back(Ms(learned.max_element_ns));
    learn_elements.push_back(static_cast<double>(learned.elements));
    learn_tokens.push_back(static_cast<double>(learned.tokens));
    write_ms.push_back(Ms(ns[kDtdWrite]));
  }

  const Context& ctx_;
  Report* report_;
  IngestSession session_;
  std::unique_ptr<serve::Corpus> corpus_;
  serve::Journal journal_;
  int64_t seq_ = 0;
  int64_t queries_ = 0;
  int64_t journal_bytes_ = 0;
  int64_t doc_bytes_ = 0;
  std::vector<std::vector<int>> doc_names_;
  std::vector<bool> touched_;
  std::string dtd_;
};

bool Running(const Report& report, int64_t deadline) {
  return report.failed == 0 && NowNs() < deadline;
}

}  // namespace

void RunTraced(Context* ctx, Report* report) {
  const Workload& workload = *ctx->workload;
  const bool batch_primary = workload.primary == Phase::kBatch;
  Status seeded =
      PreseedDataDir(ctx->dir + "/preseed", ctx->docs,
                     PreseedSnapshotDocs(*ctx), PreseedJournalDocs(*ctx));
  if (!report->Check(seeded.ok(), "pre-seed: " + seeded.ToString())) return;

  Tracer tracer;
  ServeReplay serve(*ctx, report);
  serve.Recover(&tracer);
  if (!serve.Open()) return;

  std::vector<PassFigures> passes;
  std::vector<double> traced_ns, untraced_ns;
  const int64_t block_ns =
      static_cast<int64_t>(ctx->seconds * 1e9 / (2 * kRounds));
  int64_t unit = 0;
  for (int round = 0; round < kRounds && report->failed == 0; ++round) {
    int64_t deadline = NowNs() + block_ns;
    do {
      // The primary phase alternates traced and untraced units.
      tracer.enabled = !batch_primary || unit++ % 2 == 0;
      PassFigures pass = BatchPass(*ctx, &tracer,
                                   static_cast<int64_t>(passes.size()),
                                   report);
      if (batch_primary) {
        (tracer.enabled ? traced_ns : untraced_ns)
            .push_back(static_cast<double>(pass.wall_ns));
      }
      if (tracer.enabled) passes.push_back(std::move(pass));
    } while (Running(*report, deadline));
    deadline = NowNs() + block_ns;
    do {
      tracer.enabled = batch_primary || unit++ % 2 == 0;
      int64_t wall = serve.Window(&tracer);
      if (!batch_primary) {
        (tracer.enabled ? traced_ns : untraced_ns)
            .push_back(static_cast<double>(wall));
      }
    } while (Running(*report, deadline));
  }
  tracer.enabled = true;
  if (report->failed > 0 || passes.empty()) return;

  // Outputs: every pass must agree, pinned at the default seed; sound
  // against the corpus; the replayed daemon must match IngestEngine.
  for (const PassFigures& pass : passes) {
    report->Check(pass.dtd == passes.front().dtd,
                  "traced passes inferred different DTDs");
  }
  CheckFingerprint(*ctx, passes.front().dtd, workload.fingerprint, "batch",
                   report);
  CheckSoundness(*ctx, passes.front().dtd, "batch", report);
  Result<std::string> reference = ReferenceDtd(*ctx, serve.seq());
  report->Check(reference.ok() && *reference == serve.dtd(),
                "replayed Corpus::Query differs from IngestEngine over the "
                "same documents");

  auto pass_median = [&](auto field) {
    std::vector<double> values;
    for (const PassFigures& pass : passes) values.push_back(field(pass));
    return Median(values);
  };
  auto busy = [&](int name) {
    return pass_median([name](const PassFigures& p) { return Ms(p.ns[name]); });
  };
  const int64_t n_passes = static_cast<int64_t>(passes.size());
  const int64_t n_ingests =
      static_cast<int64_t>(serve.session_ingest_ms.size());
  const int64_t n_queries = static_cast<int64_t>(serve.snapshot_ms.size());

  report->Add("io.open_ms", busy(kIoOpen), "ms", n_passes);
  report->Add("io.bytes", static_cast<double>(passes.front().bytes), "bytes",
              n_passes);
  report->Add("xml.lex_ms", busy(kXmlLex), "ms", n_passes);
  report->Add("xml.events", static_cast<double>(passes.front().events),
              "count", n_passes);
  report->Add("infer.fold_ms", busy(kInferFold), "ms", n_passes);
  report->Add("infer.flush_ms", busy(kInferFlush), "ms", n_passes);
  report->Add("infer.words", static_cast<double>(passes.front().words),
              "count", n_passes);
  report->Add("infer.distinct_words",
              static_cast<double>(passes.front().distinct_words), "count",
              n_passes);
  report->Add("infer.dedup_hit_ratio", passes.front().dedup_hit_ratio,
              "ratio", n_passes);
  report->Add("infer.session_ingest_ms", Median(serve.session_ingest_ms),
              "ms", n_ingests);
  report->Add("infer.snapshot_ms", Median(serve.snapshot_ms), "ms",
              n_queries);
  report->Add("infer.state_bytes", Median(serve.state_bytes), "bytes",
              n_queries);
  report->Add("infer.load_state_ms", Median(serve.load_state_ms), "ms",
              n_queries);
  if (batch_primary) {
    report->Add("learn.ms", busy(kLearn), "ms", n_passes);
    report->Add("learn.max_element_ms",
                pass_median([](const PassFigures& p) {
                  return Ms(p.learn.max_element_ns);
                }),
                "ms", n_passes);
    report->Add("learn.idtd_ms", busy(kLearnIdtd), "ms", n_passes);
    report->Add("learn.crx_ms", busy(kLearnCrx), "ms", n_passes);
    report->Add("learn.elements",
                static_cast<double>(passes.front().learn.elements), "count",
                n_passes);
    report->Add("learn.tokens",
                static_cast<double>(passes.front().learn.tokens), "count",
                n_passes);
    report->Add("dtd.write_ms", busy(kDtdWrite), "ms", n_passes);
  } else {
    report->Add("learn.ms", Median(serve.learn_ms), "ms", n_queries);
    report->Add("learn.max_element_ms", Median(serve.learn_max_element_ms),
                "ms", n_queries);
    report->Add("learn.idtd_ms", Median(serve.learn_idtd_ms), "ms",
                n_queries);
    report->Add("learn.crx_ms", Median(serve.learn_crx_ms), "ms",
                n_queries);
    report->Add("learn.elements", Median(serve.learn_elements), "count",
                n_queries);
    report->Add("learn.tokens", Median(serve.learn_tokens), "count",
                n_queries);
    report->Add("dtd.write_ms", Median(serve.write_ms), "ms", n_queries);
  }
  report->Add("serve.corpus_ingest_ms", Median(serve.corpus_ingest_ms), "ms",
              n_ingests);
  report->Add("serve.journal_append_ms", Median(serve.journal_append_ms),
              "ms", n_ingests);
  report->Add("serve.journal_bytes_per_byte", serve.journal_bytes_per_byte(),
              "ratio", n_ingests);
  report->Add("serve.corpus_query_ms", Median(serve.corpus_query_ms), "ms",
              n_queries);
  report->Add("serve.recover_ms", Median(serve.recover_ms), "ms",
              static_cast<int64_t>(serve.recover_ms.size()));
  report->Add("serve.touched_element_share", Median(serve.touched_share),
              "ratio", n_queries);
  report->Add("trace.overhead_ms",
              Ms(static_cast<int64_t>(Median(traced_ns) -
                                      Median(untraced_ns))),
              "ms", static_cast<int64_t>(traced_ns.size()));

  std::printf("traced profile: %lld passes, %lld ingests, %lld queries\n",
              static_cast<long long>(n_passes),
              static_cast<long long>(n_ingests),
              static_cast<long long>(n_queries));
  tracer.PrintProfile();
  std::printf("primary %s: %.4f ms traced, %.4f ms untraced (median)\n",
              batch_primary ? "pass" : "window", Median(traced_ns) / 1e6,
              Median(untraced_ns) / 1e6);
  std::string spans = ctx->dir + "/trace-spans.csv";
  report->Check(tracer.Write(spans), "cannot write " + spans);
  std::printf("%zu spans recorded, the first %zu written to %s\n",
              tracer.recorded(), tracer.kept(), spans.c_str());
}

}  // namespace perfbench
}  // namespace condtd
