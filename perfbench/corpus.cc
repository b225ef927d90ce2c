// The benchmark's seeded corpora. At kDefaultSeed they reproduce the
// repository's golden inputs byte for byte (the 64 MiB synthetic corpus
// and the Table 1/Table 2 samples), so the pinned fingerprints hold;
// any other seed re-draws every random choice.

#include <algorithm>
#include <string>
#include <vector>

#include "gen/corpus.h"
#include "harness.h"

namespace condtd {
namespace perfbench {
namespace {

constexpr int64_t kSyntheticBytes = int64_t{64} << 20;
constexpr int kRecordsPerMarkupDoc = 100;
constexpr int kMaxTextRecordsPerCase = 1000;

}  // namespace

std::vector<std::string> SyntheticTextCorpus(uint64_t seed) {
  // ~78 KB documents of 150 records each; the LCG varies the author
  // count, the optional year and note, and the numbers in the text.
  uint64_t state = 0x9E3779B97F4A7C15ull ^
                   ((seed ^ kDefaultSeed) * 0xBF58476D1CE4E5B9ull);
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  std::vector<std::string> documents;
  int64_t total_bytes = 0;
  int64_t record_id = 0;
  while (total_bytes < kSyntheticBytes) {
    std::string xml;
    xml.reserve(80 * 1024);
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

std::vector<std::string> TableMarkupCorpus(uint64_t seed) {
  std::vector<ExperimentCase> cases = BuildTable1Cases(seed);
  for (ExperimentCase& c : BuildTable2Cases(seed)) {
    cases.push_back(std::move(c));
  }
  std::vector<std::string> documents;
  for (const ExperimentCase& c : cases) {
    // Child names are prefixed per case so the content models stay
    // independent: 204 element names plus the shared root.
    std::vector<std::string> tags;
    for (int s = 0; s < c.alphabet.size(); ++s) {
      tags.push_back("<" + c.name + "_" + c.alphabet.Name(s) + "/>");
    }
    for (size_t first = 0; first < c.sample.size();
         first += kRecordsPerMarkupDoc) {
      size_t last =
          std::min(c.sample.size(), first + kRecordsPerMarkupDoc);
      std::string xml = "<corpus>";
      for (size_t i = first; i < last; ++i) {
        xml += "<" + c.name + ">";
        for (Symbol s : c.sample[i]) xml += tags[s];
        xml += "</" + c.name + ">";
      }
      xml += "</corpus>";
      documents.push_back(std::move(xml));
    }
  }
  return documents;
}

std::vector<std::string> Table1TextCorpus(uint64_t seed) {
  std::vector<std::string> documents;
  for (const ExperimentCase& c : BuildTable1Cases(seed)) {
    int count = static_cast<int>(c.sample.size());
    if (count > kMaxTextRecordsPerCase) count = kMaxTextRecordsPerCase;
    for (int i = 0; i < count; ++i) {
      std::string xml = "<corpus><" + c.name + " id=\"" + c.name + "-" +
                        std::to_string(i) + "\">";
      for (Symbol s : c.sample[i]) {
        std::string child = c.name + "_" + c.alphabet.Name(s);
        xml += "<" + child + ">record " + std::to_string(i) + " of the " +
               c.name +
               " sample, with enough character data to resemble a "
               "bibliographic field</" +
               child + ">";
      }
      xml += "</" + c.name + "></corpus>";
      documents.push_back(std::move(xml));
    }
  }
  return documents;
}

}  // namespace perfbench
}  // namespace condtd
