#include "xml/parser.h"

#include <string>
#include <vector>

#include "xml/sax.h"

namespace condtd {

namespace {

/// Starts `element` below `stack.back()` (or as the root) with the
/// lexer's current attributes, and opens it unless it is self-closing.
/// Nesting past kMaxElementDepth fails: element trees are destroyed
/// recursively, so the cap is what bounds the destructor's stack depth.
Status OpenElement(const SaxEvent& event, const SaxLexer& lexer,
                   XmlDocument* doc, std::vector<XmlElement*>* stack) {
  XmlElement* element;
  if (stack->empty()) {
    doc->root = std::make_unique<XmlElement>(std::string(event.name));
    element = doc->root.get();
  } else {
    element = stack->back()->AddChild(std::string(event.name));
  }
  for (const SaxAttribute& attr : lexer.attributes()) {
    element->AddAttribute(std::string(attr.key), std::string(attr.value));
  }
  if (event.self_closing) return Status::OK();
  if (stack->size() >= kMaxElementDepth) {
    return Status::ParseError("element nesting deeper than " +
                              std::to_string(kMaxElementDepth));
  }
  stack->push_back(element);
  return Status::OK();
}

}  // namespace

Result<XmlDocument> ParseXmlLenient(
    std::string_view input, std::vector<std::string>* recovered_errors) {
  SaxLexer lexer(input);
  XmlDocument doc;
  std::vector<XmlElement*> stack;
  auto note = [&](const std::string& message) {
    if (recovered_errors != nullptr) recovered_errors->push_back(message);
  };

  while (true) {
    Result<SaxEvent> next = lexer.Next();
    if (!next.ok()) return next.status();  // lexical errors still fail
    const SaxEvent& event = next.value();
    switch (event.kind) {
      case SaxEventKind::kEof:
        if (!stack.empty()) {
          note("closed " + std::to_string(stack.size()) +
               " unclosed element(s) at end of input");
          stack.clear();
        }
        if (doc.root == nullptr) {
          return Status::ParseError("document has no root element");
        }
        return doc;
      case SaxEventKind::kDoctype:
        if (doc.root == nullptr) doc.doctype = std::string(event.text);
        break;
      case SaxEventKind::kText:
        if (!stack.empty()) {
          stack.back()->AppendText(event.text);
        } else {
          note("dropped character data outside the root element");
        }
        break;
      case SaxEventKind::kStartElement:
        if (stack.empty() && doc.root != nullptr) {
          // Simplest recovery: drop just this tag. Its children land
          // here too (the stack stays empty), so the whole trailing
          // subtree is dropped tag by tag.
          note("dropped content after the root element (<" +
               std::string(event.name) + ">)");
          break;
        }
        if (Status opened = OpenElement(event, lexer, &doc, &stack);
            !opened.ok()) {
          return opened;
        }
        break;
      case SaxEventKind::kEndElement: {
        // Find the nearest open element with this name.
        int match = -1;
        for (int i = static_cast<int>(stack.size()) - 1; i >= 0; --i) {
          if (stack[i]->name() == event.name) {
            match = i;
            break;
          }
        }
        if (match < 0) {
          note("dropped stray closing tag </" + std::string(event.name) +
               ">");
          break;
        }
        if (match + 1 != static_cast<int>(stack.size())) {
          note("auto-closed " +
               std::to_string(stack.size() - match - 1) +
               " element(s) at </" + std::string(event.name) + ">");
        }
        stack.resize(match);
        break;
      }
    }
  }
}

Result<XmlDocument> ParseXml(std::string_view input) {
  SaxLexer lexer(input);
  XmlDocument doc;
  std::vector<XmlElement*> stack;

  while (true) {
    Result<SaxEvent> next = lexer.Next();
    if (!next.ok()) return next.status();
    const SaxEvent& event = next.value();
    switch (event.kind) {
      case SaxEventKind::kEof:
        if (!stack.empty()) {
          return Status::ParseError("unexpected end of document inside <" +
                                    stack.back()->name() + ">");
        }
        if (doc.root == nullptr) {
          return Status::ParseError("document has no root element");
        }
        return doc;
      case SaxEventKind::kDoctype:
        if (doc.root != nullptr || !stack.empty()) {
          return Status::ParseError("DOCTYPE after the root element");
        }
        doc.doctype = std::string(event.text);
        break;
      case SaxEventKind::kText:
        if (stack.empty()) {
          return Status::ParseError(
              "character data outside the root element at offset " +
              std::to_string(event.offset));
        }
        stack.back()->AppendText(event.text);
        break;
      case SaxEventKind::kStartElement:
        if (stack.empty() && doc.root != nullptr) {
          return Status::ParseError("multiple root elements (<" +
                                    std::string(event.name) + ">)");
        }
        if (Status opened = OpenElement(event, lexer, &doc, &stack);
            !opened.ok()) {
          return opened;
        }
        break;
      case SaxEventKind::kEndElement:
        if (stack.empty()) {
          return Status::ParseError("stray closing tag </" +
                                    std::string(event.name) + ">");
        }
        if (stack.back()->name() != event.name) {
          return Status::ParseError("mismatched closing tag </" +
                                    std::string(event.name) +
                                    ">; expected </" +
                                    stack.back()->name() + ">");
        }
        stack.pop_back();
        break;
    }
  }
}

}  // namespace condtd
