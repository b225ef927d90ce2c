#include "serve/prometheus.h"

#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace condtd {
namespace serve {

namespace {

/// Prometheus label-value escaping: backslash, double-quote, newline.
/// Corpus ids are already [A-Za-z0-9_.-]+ but the renderer should not
/// depend on its callers' validation.
std::string EscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void AppendHeader(std::string& out, std::string_view name,
                  std::string_view type, std::string_view help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void AppendValue(std::string& out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out += buf;
  out += '\n';
}

void AppendSeconds(std::string& out, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", static_cast<double>(ns) / 1e9);
  out += buf;
  out += '\n';
}

/// One family with a sample per corpus, selected by `pick`.
template <typename Pick>
void CorpusFamily(
    std::string& out,
    const std::vector<std::pair<std::string, CorpusStats>>& corpora,
    std::string_view name, std::string_view type, std::string_view help,
    Pick pick) {
  AppendHeader(out, name, type, help);
  for (const auto& [id, stats] : corpora) {
    out += name;
    out += "{corpus=\"";
    out += EscapeLabel(id);
    out += "\"} ";
    AppendValue(out, pick(stats));
  }
}

void CorpusHistogram(
    std::string& out,
    const std::vector<std::pair<std::string, CorpusStats>>& corpora,
    std::string_view name, std::string_view help,
    const obs::StageStats CorpusStats::* histogram) {
  AppendHeader(out, name, "histogram", help);
  for (const auto& [id, stats] : corpora) {
    const obs::StageStats& h = stats.*histogram;
    const std::string label = EscapeLabel(id);
    int64_t cumulative = 0;
    for (int bucket = 0; bucket < obs::kLatencyBuckets; ++bucket) {
      cumulative += h.buckets[bucket];
      out += name;
      out += "_bucket{corpus=\"";
      out += label;
      out += "\",le=\"";
      if (bucket < obs::kLatencyBuckets - 1) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g",
                      static_cast<double>(obs::kBucketBoundsNs[bucket]) /
                          1e9);
        out += buf;
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      AppendValue(out, cumulative);
    }
    out += name;
    out += "_sum{corpus=\"";
    out += label;
    out += "\"} ";
    AppendSeconds(out, h.total_ns);
    out += name;
    out += "_count{corpus=\"";
    out += label;
    out += "\"} ";
    AppendValue(out, h.count);
  }
}

}  // namespace

std::string RenderPrometheusText(
    const std::vector<std::pair<std::string, CorpusStats>>& corpora,
    const obs::StatsSnapshot& process) {
  std::string out;
  out.reserve(4096 + corpora.size() * 2048);

  AppendHeader(out, "condtd_corpora_open", "gauge",
               "Live corpora in the serve registry.");
  out += "condtd_corpora_open ";
  AppendValue(out, static_cast<int64_t>(corpora.size()));

  CorpusFamily(out, corpora, "condtd_corpus_documents_total", "counter",
               "Successfully ingested documents.",
               [](const CorpusStats& s) { return s.documents; });
  CorpusFamily(out, corpora, "condtd_corpus_failed_documents_total",
               "counter", "Documents rejected by parse or open errors.",
               [](const CorpusStats& s) { return s.failed_documents; });
  CorpusFamily(out, corpora, "condtd_corpus_bytes_ingested_total",
               "counter", "Raw XML bytes of ingested documents.",
               [](const CorpusStats& s) { return s.bytes_ingested; });
  CorpusFamily(out, corpora, "condtd_corpus_queries_total", "counter",
               "QUERY commands answered.",
               [](const CorpusStats& s) { return s.queries; });
  CorpusFamily(out, corpora, "condtd_corpus_query_cache_hits_total",
               "counter", "QUERYs that re-learned no element.",
               [](const CorpusStats& s) { return s.query_cache_hits; });
  CorpusFamily(out, corpora, "condtd_corpus_snapshots_total", "counter",
               "Snapshot generation rotations.",
               [](const CorpusStats& s) { return s.snapshots; });
  CorpusFamily(out, corpora, "condtd_corpus_compactions_total", "counter",
               "Rotations forced by --compact-journal-bytes.",
               [](const CorpusStats& s) { return s.compactions; });
  CorpusFamily(out, corpora, "condtd_corpus_epoch", "gauge",
               "Session version counter.",
               [](const CorpusStats& s) { return s.epoch; });
  CorpusFamily(out, corpora, "condtd_corpus_generation", "gauge",
               "Current snapshot/journal generation.",
               [](const CorpusStats& s) { return s.generation; });
  CorpusFamily(out, corpora, "condtd_corpus_journal_bytes", "gauge",
               "Size of the live journal file.",
               [](const CorpusStats& s) { return s.journal_bytes; });
  CorpusFamily(out, corpora, "condtd_corpus_resident_bytes", "gauge",
               "Approximate resident bytes of retained inference state.",
               [](const CorpusStats& s) {
                 return s.approx_bytes;
               });

  CorpusHistogram(out, corpora, "condtd_corpus_ingest_latency_seconds",
                  "INGEST command latency.", &CorpusStats::ingest_latency);
  CorpusHistogram(out, corpora, "condtd_corpus_query_latency_seconds",
                  "QUERY command latency.", &CorpusStats::query_latency);

  // Process-wide obs registry. All-zero (with condtd_process_stats_enabled
  // 0) when --stats was not passed; the families still render so scrapes
  // are schema-stable either way.
  AppendHeader(out, "condtd_process_stats_enabled", "gauge",
               "Whether the obs registry is collecting (--stats).");
  out += "condtd_process_stats_enabled ";
  AppendValue(out, process.enabled ? 1 : 0);

  for (int c = 0; c < static_cast<int>(obs::Counter::kNumCounters); ++c) {
    std::string name = "condtd_process_";
    name += obs::CounterName(static_cast<obs::Counter>(c));
    name += "_total";
    AppendHeader(out, name, "counter", "Deterministic pipeline counter.");
    out += name;
    out += ' ';
    AppendValue(out, process.counters[c]);
  }
  for (int c = 0; c < static_cast<int>(obs::SchedCounter::kNumSchedCounters);
       ++c) {
    std::string name = "condtd_process_";
    name += obs::SchedCounterName(static_cast<obs::SchedCounter>(c));
    name += "_total";
    AppendHeader(out, name, "counter",
                 "Scheduling-dependent pipeline counter.");
    out += name;
    out += ' ';
    AppendValue(out, process.sched[c]);
  }
  for (int g = 0; g < static_cast<int>(obs::Gauge::kNumGauges); ++g) {
    std::string name = "condtd_process_";
    name += obs::GaugeName(static_cast<obs::Gauge>(g));
    AppendHeader(out, name, "gauge", "Pipeline gauge.");
    out += name;
    out += ' ';
    AppendValue(out, process.gauges[g]);
  }

  return out;
}

}  // namespace serve
}  // namespace condtd
