// Fuzz target: the XML tokenizer as the DOM path uses it. Drains
// SaxLexer's event stream until EOF or the first parse error, then
// builds the DOM strict and tag-soup lenient. Every tree either parser
// returns must be well-formed XML: its ToXml() serialization parses
// strictly and serializes back to the same bytes. Crashes, hangs,
// sanitizer reports and round-trip failures are bugs; parse errors are
// fine. (fuzz_sax covers the tokenizer's other consumer, the streaming
// fold.)

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace {

// ToXml indents by depth, so its output grows with the square of the
// nesting depth; deeper trees are walked but not serialized.
constexpr size_t kMaxRoundTripDepth = 256;

// Reads every name, attribute and text of the tree so ASan sees stale
// storage, and returns its depth. Iterative: the tree may be
// kMaxElementDepth deep.
size_t WalkTree(const condtd::XmlElement& root) {
  size_t depth = 0;
  std::vector<std::pair<const condtd::XmlElement*, size_t>> pending = {
      {&root, 1}};
  while (!pending.empty()) {
    auto [element, level] = pending.back();
    pending.pop_back();
    depth = std::max(depth, level);
    volatile size_t sink = element->name().size() + element->text().size();
    for (const auto& [key, value] : element->attributes()) {
      sink = sink + key.size() + value.size();
    }
    for (const auto& child : element->children()) {
      pending.emplace_back(child.get(), level + 1);
    }
  }
  return depth;
}

void CheckRoundTrip(const condtd::XmlDocument& doc, const char* mode) {
  if (WalkTree(*doc.root) > kMaxRoundTripDepth) return;
  std::string serialized = doc.ToXml();
  condtd::Result<condtd::XmlDocument> reparsed = condtd::ParseXml(serialized);
  if (!reparsed.ok()) {
    std::fprintf(stderr, "%s tree does not reparse: %s\n%s", mode,
                 reparsed.status().ToString().c_str(), serialized.c_str());
    std::abort();
  }
  std::string again = reparsed->ToXml();
  if (again != serialized) {
    std::fprintf(stderr,
                 "%s tree does not round-trip:\nfirst:\n%s\nsecond:\n%s",
                 mode, serialized.c_str(), again.c_str());
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 65536) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);

  condtd::SaxLexer lexer(input);
  while (true) {
    condtd::Result<condtd::SaxEvent> event = lexer.Next();
    if (!event.ok()) break;
    if (event->kind == condtd::SaxEventKind::kEof) break;
  }

  condtd::Result<condtd::XmlDocument> strict = condtd::ParseXml(input);
  if (strict.ok()) CheckRoundTrip(*strict, "strict");
  std::vector<std::string> recovered;
  condtd::Result<condtd::XmlDocument> lenient =
      condtd::ParseXmlLenient(input, &recovered);
  if (lenient.ok()) CheckRoundTrip(*lenient, "lenient");
  return 0;
}
