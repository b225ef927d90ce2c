#include "check/reference_fold.h"

#include <vector>

#include "infer/summary.h"
#include "xml/parser.h"
#include "xsd/writer.h"

namespace condtd {

void ReferenceFoldDocument(const XmlDocument& doc, DtdInferrer* inferrer) {
  if (doc.root == nullptr) return;
  Alphabet* alphabet = inferrer->alphabet();
  SummaryStore& store = inferrer->summaries();
  const bool infer_attributes = inferrer->options().infer_attributes;
  store.AddRoot(alphabet->Intern(doc.root->name()));

  // Depth-first traversal collecting each element's child-name word.
  // Each name is interned immediately before its subtree is entered, so
  // the alphabet grows in document (start-tag) order; each word and
  // text value folds when its element is left (end-tag order).
  struct VisitFrame {
    const XmlElement* element;
    Symbol symbol;
    size_t next_child = 0;
    Word word;
  };
  std::vector<VisitFrame> stack;
  auto open = [&](const XmlElement* element, Symbol symbol) {
    ElementSummary& summary = store.Ensure(symbol);
    ++summary.occurrences;
    if (infer_attributes) {
      for (const auto& [key, value] : element->attributes()) {
        ++summary.attribute_counts[key];
      }
    }
    stack.push_back({element, symbol, 0, {}});
    stack.back().word.reserve(element->children().size());
  };
  open(doc.root.get(), alphabet->Intern(doc.root->name()));
  while (!stack.empty()) {
    VisitFrame& frame = stack.back();
    const auto& children = frame.element->children();
    if (frame.next_child < children.size()) {
      const XmlElement* child = children[frame.next_child++].get();
      Symbol cs = alphabet->Intern(child->name());
      frame.word.push_back(cs);
      store.MarkSeenAsChild(cs);
      open(child, cs);  // invalidates `frame`; not used again this round
      continue;
    }
    ElementSummary& summary = store.Ensure(frame.symbol);
    if (frame.element->HasSignificantText()) {
      summary.has_text = true;
      summary.text_types &= TextTypes(frame.element->text());
    }
    summary.AddChildWord(frame.word, 1, store.limits());
    stack.pop_back();
  }
}

Status ReferenceFoldXml(std::string_view xml, DtdInferrer* inferrer) {
  Result<XmlDocument> doc = inferrer->options().lenient_xml
                                ? ParseXmlLenient(xml)
                                : ParseXml(xml);
  if (!doc.ok()) return doc.status();
  ReferenceFoldDocument(doc.value(), inferrer);
  return Status::OK();
}

}  // namespace condtd
