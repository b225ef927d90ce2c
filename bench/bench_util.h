#ifndef CONDTD_BENCH_BENCH_UTIL_H_
#define CONDTD_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gen/corpus.h"
#include "regex/ast.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/normalize.h"
#include "regex/properties.h"

namespace condtd {
namespace bench_util {

/// One document per sample word: <root><a1/><a7/>...</root>.
inline std::vector<std::string> DocumentsFromCase(const ExperimentCase& c,
                                                  const std::string& root,
                                                  int max_docs) {
  std::vector<std::string> documents;
  int count = static_cast<int>(c.sample.size());
  if (max_docs > 0 && count > max_docs) count = max_docs;
  documents.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string xml = "<" + root + ">";
    for (Symbol s : c.sample[i]) {
      xml += '<';
      xml += c.alphabet.Name(s);
      xml += "/>";
    }
    xml += "</" + root + ">";
    documents.push_back(std::move(xml));
  }
  return documents;
}

/// Table 2's example4 corpus (61 symbols, 10000 strings): one big
/// element, dominated by parse + fold.
inline const std::vector<std::string>& Example4Documents() {
  static const std::vector<std::string>* kDocs = [] {
    std::vector<ExperimentCase> cases = BuildTable2Cases(20060912);
    return new std::vector<std::string>(
        DocumentsFromCase(cases[3], "example4", /*max_docs=*/0));
  }();
  return *kDocs;
}

/// Multi-element corpus: every Table 1 case becomes one element under a
/// shared root, child names prefixed per case so the nine content models
/// stay independent. This is the shape where per-element work spreads
/// across many element names.
inline const std::vector<std::string>& Table1Documents() {
  static const std::vector<std::string>* kDocs = [] {
    std::vector<ExperimentCase> cases = BuildTable1Cases(20060912);
    auto* documents = new std::vector<std::string>();
    for (const ExperimentCase& c : cases) {
      int count = static_cast<int>(c.sample.size());
      if (count > 200) count = 200;
      for (int i = 0; i < count; ++i) {
        std::string xml = "<corpus><" + c.name + ">";
        for (Symbol s : c.sample[i]) {
          xml += "<" + c.name + "_" + std::string(c.alphabet.Name(s)) +
                 "/>";
        }
        xml += "</" + c.name + "></corpus>";
        documents->push_back(std::move(xml));
      }
    }
    return documents;
  }();
  return *kDocs;
}

/// As `Table1Documents`, but shaped like real-world XML rather than pure
/// markup: leaf elements carry #PCDATA and the case element an id
/// attribute, so documents are text-dominant the way the paper's corpora
/// (DBLP, Mondial, XHTML crawls) are. This is the ingestion-throughput
/// corpus — character data is where a DOM parse pays per-node string
/// copies and the streaming fold lexes zero-copy views.
inline const std::vector<std::string>& Table1TextDocuments() {
  static const std::vector<std::string>* kDocs = [] {
    std::vector<ExperimentCase> cases = BuildTable1Cases(20060912);
    auto* documents = new std::vector<std::string>();
    for (const ExperimentCase& c : cases) {
      int count = static_cast<int>(c.sample.size());
      if (count > 1000) count = 1000;
      for (int i = 0; i < count; ++i) {
        std::string xml = "<corpus><" + c.name + " id=\"" + c.name + "-" +
                          std::to_string(i) + "\">";
        for (Symbol s : c.sample[i]) {
          std::string child = c.name + "_" + std::string(c.alphabet.Name(s));
          xml += "<" + child + ">record " + std::to_string(i) +
                 " of the " + c.name +
                 " sample, with enough character data to resemble a "
                 "bibliographic field</" +
                 child + ">";
        }
        xml += "</" + c.name + "></corpus>";
        documents->push_back(std::move(xml));
      }
    }
    return documents;
  }();
  return *kDocs;
}

/// Logical CPUs available to this process. hardware_concurrency()
/// respects CPU affinity masks and cgroup limits where the platform
/// exposes them — unlike a bare /proc/cpuinfo count, which overstates
/// parallelism on throttled CI runners.
inline int NumCpus() {
  unsigned count = std::thread::hardware_concurrency();
  return count > 0 ? static_cast<int>(count) : 1;
}

/// Deterministic synthetic corpus for the --synthetic-mb mode: keeps
/// generating ~60 KiB text-dominant documents (record lists with a
/// title, 1-3 authors, an optional year, an abstract, and a rare
/// entity-bearing note) until the corpus reaches `target_mb` MiB.
/// Structure varies via a fixed-seed LCG, so every run — and every
/// ingestion mode — sees byte-identical documents and must infer the
/// same DTD. Sized to blow far past L3 so throughput numbers measure
/// memory bandwidth, not cache residency.
inline std::vector<std::string> SyntheticCorpusDocuments(int target_mb) {
  std::vector<std::string> documents;
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  const int64_t target_bytes = static_cast<int64_t>(target_mb) << 20;
  int64_t total_bytes = 0;
  int64_t record_id = 0;
  while (total_bytes < target_bytes) {
    std::string xml;
    xml.reserve(64 * 1024);
    xml += "<dataset>";
    for (int r = 0; r < 150; ++r) {
      int64_t rec = record_id++;
      xml += "<record id=\"r";
      xml += std::to_string(rec);
      xml += "\"><title>synthetic record ";
      xml += std::to_string(rec);
      xml +=
          ", a title long enough to look like a real bibliographic "
          "entry</title>";
      int authors = 1 + static_cast<int>(next() % 3);
      for (int a = 0; a < authors; ++a) {
        xml += "<author>contributor ";
        xml += std::to_string(next() % 997);
        xml += "</author>";
      }
      if (next() % 2 == 0) {
        xml += "<year>";
        xml += std::to_string(1990 + next() % 30);
        xml += "</year>";
      }
      xml +=
          "<abstract>This synthetic abstract pads each record with "
          "enough character data that ingestion throughput is dominated "
          "by text scanning, the profile of DBLP-like corpora: the "
          "lexer must find the next structural byte in runs of a few "
          "hundred bytes, which is exactly the SWAR fast path. Filler "
          "token ";
      xml += std::to_string(next());
      xml += ".</abstract>";
      if (next() % 8 == 0) {
        xml += "<note>flagged &amp; cross-checked</note>";
      }
      xml += "</record>";
    }
    xml += "</dataset>";
    total_bytes += static_cast<int64_t>(xml.size());
    documents.push_back(std::move(xml));
  }
  return documents;
}

/// Wall-clock stopwatch for the coarse timings reported in
/// EXPERIMENTS.md (google-benchmark is used for the fine-grained
/// perf_scaling binary).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// True when every word of the sample is accepted by `re` — the basic
/// soundness requirement on every inferred expression.
inline bool AcceptsSample(const ReRef& re,
                          const std::vector<Word>& sample) {
  Matcher matcher(re);
  for (const Word& w : sample) {
    if (!matcher.Matches(w)) return false;
  }
  return true;
}

/// Render in the paper's table notation.
inline std::string Paper(const ReRef& re, const Alphabet& alphabet) {
  return ToString(re, alphabet, PrintStyle::kPaper);
}

/// Abbreviates very long expressions the way the paper's tables do
/// ("an expression of N tokens").
inline std::string PaperOrTokens(const ReRef& re, const Alphabet& alphabet,
                                 size_t max_chars = 70) {
  std::string text = Paper(re, alphabet);
  if (text.size() <= max_chars) return text;
  return "an expression of " + std::to_string(CountTokens(re)) + " tokens";
}

inline void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

}  // namespace bench_util
}  // namespace condtd

#endif  // CONDTD_BENCH_BENCH_UTIL_H_
