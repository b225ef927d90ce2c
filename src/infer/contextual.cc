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
    // Attribute counts summed per type, parallel to entry.types. The
    // fold collects them only under `infer_attributes`.
    std::vector<std::map<std::string, int64_t, std::less<>>> type_counts;
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
        entry.types.push_back({{key.second}, *model, summary.occurrences, {}});
        type_counts.emplace_back();
        same = entry.types.end() - 1;
      }
      auto& counts = type_counts[same - entry.types.begin()];
      for (const auto& [name, count] : summary.attribute_counts) {
        counts[name] += count;
      }
    }
    for (size_t t = 0; t < entry.types.size(); ++t) {
      entry.types[t].attributes =
          AttributeDefs(type_counts[t], entry.types[t].occurrences);
    }
    Result<ContentModel> merged = inferrer_.InferContentModel(entry.element);
    if (!merged.ok()) return merged.status();
    entry.merged = *merged;
    const ElementSummary& pooled = *inferrer_.summaries().Find(entry.element);
    entry.merged_attributes =
        AttributeDefs(pooled.attribute_counts, pooled.occurrences);
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
  // The type an element gets under `parent`: its context type, or the
  // pooled one when no context type lists that parent.
  struct RenderedType {
    const ContentModel* model;
    const std::vector<Dtd::AttributeDef>* attributes;
  };
  auto type_for_context = [&](Symbol element, Symbol parent) -> RenderedType {
    const Report::ElementTypes* entry = by_element.at(element);
    for (const ContextType& type : entry->types) {
      for (Symbol p : type.parents) {
        if (p == parent) return {&type.model, &type.attributes};
      }
    }
    return {&entry->merged, &entry->merged_attributes};
  };

  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";

  // Rendering one element's complexType (shared by global and local
  // decls), in WriteXsd's shapes: text content makes it mixed, and the
  // attributes follow the particle. A #PCDATA type without attributes
  // has no complexType; its caller renders type="xs:string". `chain`
  // guards against recursive inlining.
  std::function<void(Symbol, const RenderedType&, int, std::string*,
                     std::vector<Symbol>*)>
      render_body = [&](Symbol element, const RenderedType& type,
                        int indent, std::string* text,
                        std::vector<Symbol>* chain) {
        const ContentModel& model = *type.model;
        std::string pad(indent * 2, ' ');
        std::string particle;
        if (model.kind == ContentKind::kMixed) {
          particle += pad + "  <xs:choice minOccurs=\"0\" "
                            "maxOccurs=\"unbounded\">\n";
          for (Symbol child : model.mixed_symbols) {
            particle += pad + "    <xs:element ref=\"" + names.Name(child) +
                        "\"/>\n";
          }
          particle += pad + "  </xs:choice>\n";
        } else if (model.kind == ContentKind::kChildren) {
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
            RenderedType child_type = type_for_context(child, element);
            if (child_type.model->kind == ContentKind::kPcdataOnly &&
                child_type.attributes->empty()) {
              *inner += child_pad + "<xs:element name=\"" + name +
                        "\" type=\"xs:string\"" + occurs + "/>\n";
              return;
            }
            *inner += child_pad + "<xs:element name=\"" + name + "\"" +
                      occurs + ">\n";
            chain->push_back(child);
            render_body(child, child_type, child_indent + 1, inner, chain);
            chain->pop_back();
            *inner += child_pad + "</xs:element>\n";
          };
          XsdPrinter(names, /*numeric=*/nullptr, emit)
              .ContentParticle(model.regex, indent + 1, &particle);
        }
        const bool mixed = model.kind != ContentKind::kEmpty &&
                           model.kind != ContentKind::kChildren;
        *text += pad + (mixed ? "<xs:complexType mixed=\"true\""
                              : "<xs:complexType");
        if (particle.empty() && type.attributes->empty()) {
          *text += "/>\n";
          return;
        }
        *text += ">\n" + particle;
        WriteXsdAttributes(*type.attributes, indent + 1, text);
        *text += pad + "</xs:complexType>\n";
      };

  for (const auto& entry : report.elements) {
    // Context-dependent elements only appear as local declarations —
    // except that a global fallback declaration is still emitted (used
    // by recursive chains and by mixed-content refs).
    const RenderedType type = {&entry.merged, &entry.merged_attributes};
    const std::string& name = names.Name(entry.element);
    if (entry.merged.kind == ContentKind::kPcdataOnly &&
        entry.merged_attributes.empty()) {
      out += "  <xs:element name=\"" + name + "\" type=\"xs:string\"/>\n";
      continue;
    }
    out += "  <xs:element name=\"" + name + "\">\n";
    std::vector<Symbol> chain = {entry.element};
    render_body(entry.element, type, 2, &out, &chain);
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
