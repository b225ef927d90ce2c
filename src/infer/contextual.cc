#include "infer/contextual.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "regex/equivalence.h"
#include "xsd/writer.h"

namespace condtd {

ContextualInferrer::ContextualInferrer(InferenceOptions options)
    : inferrer_(std::move(options)) {}

Status ContextualInferrer::AddXml(std::string_view xml) {
  StreamingFolder folder(&inferrer_);  // flushes on destruction
  folder.AttachContexts(&contexts_);
  return folder.AddXml(xml);
}

namespace {

bool SameModel(const ContentModel& a, const ContentModel& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ContentKind::kChildren:
      return LanguageEquivalent(a.regex, b.regex);
    case ContentKind::kMixed:
      return a.mixed_symbols == b.mixed_symbols;
    default:
      return true;
  }
}

}  // namespace

Result<ContextualInferrer::Report> ContextualInferrer::Infer() const {
  Report report;
  // contexts_ is keyed (element, parent), so one element's contexts are
  // adjacent.
  for (auto it = contexts_.begin(); it != contexts_.end();) {
    Report::ElementTypes entry;
    entry.element = it->first.first;
    for (; it != contexts_.end() && it->first.first == entry.element; ++it) {
      const auto& [key, summary] = *it;
      Result<ContentModel> model =
          inferrer_.InferElement(summary, /*xsd=*/false).model;
      if (!model.ok()) return model.status();
      auto same = std::find_if(
          entry.types.begin(), entry.types.end(),
          [&](const ContextType& type) {
            return SameModel(type.model, *model);
          });
      if (same != entry.types.end()) {
        same->parents.push_back(key.second);
        same->occurrences += summary.occurrences;
      } else {
        entry.types.push_back({{key.second}, *model, summary.occurrences});
      }
    }
    Result<ContentModel> merged = inferrer_.InferContentModel(entry.element);
    if (!merged.ok()) return merged.status();
    entry.merged = *merged;
    report.elements.push_back(std::move(entry));
  }
  return report;
}

int ContextualInferrer::Report::NumContextDependent() const {
  int count = 0;
  for (const ElementTypes& entry : elements) {
    if (entry.types.size() >= 2) ++count;
  }
  return count;
}

Result<std::string> ContextualInferrer::InferLocalXsd() const {
  Result<Report> report_or = Infer();
  if (!report_or.ok()) return report_or.status();
  const Report& report = report_or.value();
  const Alphabet& names = alphabet();

  std::map<Symbol, const Report::ElementTypes*> by_element;
  for (const auto& entry : report.elements) {
    by_element[entry.element] = &entry;
  }
  auto is_contextual = [&](Symbol s) {
    auto it = by_element.find(s);
    return it != by_element.end() && it->second->types.size() >= 2;
  };
  auto model_for_context = [&](Symbol element,
                               Symbol parent) -> const ContentModel* {
    const Report::ElementTypes* entry = by_element.at(element);
    for (const ContextType& type : entry->types) {
      for (Symbol p : type.parents) {
        if (p == parent) return &type.model;
      }
    }
    return &entry->merged;
  };

  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";

  // Rendering one element's body (shared by global and local decls).
  // `chain` guards against recursive inlining.
  std::function<void(Symbol, const ContentModel&, int, std::string*,
                     std::vector<Symbol>*)>
      render_body = [&](Symbol element, const ContentModel& model,
                        int indent, std::string* text,
                        std::vector<Symbol>* chain) {
        std::string pad(indent * 2, ' ');
        switch (model.kind) {
          case ContentKind::kPcdataOnly:
            // Rendered by the caller as type="xs:string".
            return;
          case ContentKind::kEmpty:
            *text += pad + "<xs:complexType/>\n";
            return;
          case ContentKind::kAny:
            *text += pad + "<xs:complexType mixed=\"true\"/>\n";
            return;
          case ContentKind::kMixed: {
            *text += pad + "<xs:complexType mixed=\"true\">\n";
            *text += pad + "  <xs:choice minOccurs=\"0\" "
                           "maxOccurs=\"unbounded\">\n";
            for (Symbol child : model.mixed_symbols) {
              *text += pad + "    <xs:element ref=\"" + names.Name(child) +
                       "\"/>\n";
            }
            *text += pad + "  </xs:choice>\n";
            *text += pad + "</xs:complexType>\n";
            return;
          }
          case ContentKind::kChildren: {
            // Context-dependent children are declared inline with their
            // (child, element) type; the rest, and any child already on
            // the chain, are global refs.
            auto emit = [&](Symbol child, const std::string& occurs,
                            int child_indent, std::string* inner) {
              std::string child_pad(child_indent * 2, ' ');
              const std::string& name = names.Name(child);
              if (!is_contextual(child) ||
                  std::find(chain->begin(), chain->end(), child) !=
                      chain->end()) {
                *inner += child_pad + "<xs:element ref=\"" + name + "\"" +
                          occurs + "/>\n";
                return;
              }
              const ContentModel* child_model =
                  model_for_context(child, element);
              if (child_model->kind == ContentKind::kPcdataOnly) {
                *inner += child_pad + "<xs:element name=\"" + name +
                          "\" type=\"xs:string\"" + occurs + "/>\n";
                return;
              }
              *inner += child_pad + "<xs:element name=\"" + name + "\"" +
                        occurs + ">\n";
              chain->push_back(child);
              render_body(child, *child_model, child_indent + 1, inner,
                          chain);
              chain->pop_back();
              *inner += child_pad + "</xs:element>\n";
            };
            *text += pad + "<xs:complexType>\n";
            XsdPrinter(names, /*numeric=*/nullptr, emit)
                .ContentParticle(model.regex, indent + 1, text);
            *text += pad + "</xs:complexType>\n";
            return;
          }
        }
      };

  for (const auto& entry : report.elements) {
    // Context-dependent elements only appear as local declarations —
    // except that a global fallback declaration is still emitted (used
    // by recursive chains and by mixed-content refs).
    const ContentModel& model = entry.merged;
    const std::string& name = names.Name(entry.element);
    if (model.kind == ContentKind::kPcdataOnly) {
      out += "  <xs:element name=\"" + name + "\" type=\"xs:string\"/>\n";
      continue;
    }
    out += "  <xs:element name=\"" + name + "\">\n";
    std::vector<Symbol> chain = {entry.element};
    render_body(entry.element, model, 2, &out, &chain);
    out += "  </xs:element>\n";
  }
  out += "</xs:schema>\n";
  return out;
}

std::string ContextualInferrer::ReportToString(const Report& report) const {
  std::string out;
  for (const Report::ElementTypes& entry : report.elements) {
    out += alphabet().Name(entry.element);
    if (entry.types.size() == 1) {
      out += ": " + ContentModelToString(entry.types[0].model, alphabet()) +
             "  (uniform; DTD-expressible)\n";
      continue;
    }
    out += ": " + std::to_string(entry.types.size()) +
           " context-dependent types\n";
    for (const ContextType& type : entry.types) {
      out += "  under";
      for (Symbol parent : type.parents) {
        out += ' ';
        out += parent == kInvalidSymbol ? std::string("<root>")
                                        : alphabet().Name(parent);
      }
      out += ": " + ContentModelToString(type.model, alphabet()) + " (" +
             std::to_string(type.occurrences) + " occurrences)\n";
    }
    out += "  DTD approximation: " +
           ContentModelToString(entry.merged, alphabet()) + "\n";
  }
  return out;
}

}  // namespace condtd
