// Fuzz target: the one XML tokenizer (SaxLexer) and both of its
// consumers. Every input is lexed, parsed into a DOM and folded through
// StreamingFolder, strict and tag-soup lenient. The fold must accept
// exactly the documents the parser accepts and reject the rest with the
// parser's message; any disagreement aborts, so the replay corpus pins
// the parser-vs-fold differential as well as crash regressions.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace {

void CheckParserAgreesWithFold(std::string_view input, bool lenient) {
  condtd::Status parsed = lenient ? condtd::ParseXmlLenient(input).status()
                                  : condtd::ParseXml(input).status();
  condtd::InferenceOptions options;
  options.lenient_xml = lenient;
  condtd::DtdInferrer inferrer(options);
  condtd::StreamingFolder folder(&inferrer);
  condtd::Status folded = folder.AddXml(input);
  if (parsed.ToString() != folded.ToString()) {
    std::fprintf(stderr,
                 "%s parser and streaming fold disagree:\n"
                 "  parser: %s\n  fold:   %s\n",
                 lenient ? "lenient" : "strict", parsed.ToString().c_str(),
                 folded.ToString().c_str());
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
    // Touch the borrowed views so ASan sees out-of-bounds storage.
    if (event->kind == condtd::SaxEventKind::kStartElement) {
      for (const condtd::SaxAttribute& attr : lexer.attributes()) {
        volatile size_t sink = attr.key.size() + attr.value.size();
        (void)sink;
      }
    }
  }

  CheckParserAgreesWithFold(input, /*lenient=*/false);
  CheckParserAgreesWithFold(input, /*lenient=*/true);
  return 0;
}
