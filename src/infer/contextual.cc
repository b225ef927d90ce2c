#include "infer/contextual.h"

#include <algorithm>
#include <functional>

#include "regex/equivalence.h"
#include "xml/parser.h"

namespace condtd {

namespace {

LearnOptions MakeLearnOptions(const InferenceOptions& options) {
  LearnOptions out;
  out.noise_symbol_threshold = options.noise_symbol_threshold;
  out.auto_idtd_min_words = options.auto_idtd_min_words;
  out.idtd = options.idtd;
  out.xtract = options.xtract;
  return out;
}

// Same rule DtdInferrer applies: the selected learner's capabilities
// size the summaries' retention.
SummaryLimits MakeLimits(const InferenceOptions& options,
                         const Learner* learner) {
  SummaryLimits limits;
  limits.max_text_samples = options.max_text_samples;
  limits.max_retained_words =
      learner != nullptr && learner->needs_full_words()
          ? options.xtract.max_strings + 2
          : 0;
  return limits;
}

}  // namespace

ContextualInferrer::ContextualInferrer(InferenceOptions options)
    : options_(std::move(options)),
      learn_options_(MakeLearnOptions(options_)),
      learner_(LearnerRegistry::Global().Find(options_.learner)),
      limits_(MakeLimits(options_, learner_)) {}

ElementSummary& ContextualInferrer::Prepare(ElementSummary& summary) const {
  // Fresh summaries (nothing folded yet) start words-complete iff the
  // reservoir is enabled — the same rule as SummaryStore::Ensure.
  if (summary.occurrences == 0 && limits_.max_retained_words > 0) {
    summary.words_complete = true;
  }
  return summary;
}

Status ContextualInferrer::AddXml(std::string_view xml) {
  Result<XmlDocument> doc =
      options_.lenient_xml ? ParseXmlLenient(xml) : ParseXml(xml);
  if (!doc.ok()) return doc.status();
  AddDocument(doc.value());
  return Status::OK();
}

void ContextualInferrer::AddDocument(const XmlDocument& doc) {
  if (doc.root == nullptr) return;
  // Depth-first, interning each name right before entering its subtree:
  // the alphabet grows in document (start-tag) order, matching
  // DtdInferrer's streaming fold so symbol-id tie-breaks agree.
  struct VisitFrame {
    const XmlElement* element;
    Symbol symbol;
    Symbol parent;
    size_t next_child = 0;
    Word word;
  };
  std::vector<VisitFrame> stack;
  auto open = [&](const XmlElement* element, Symbol symbol, Symbol parent) {
    stack.push_back({element, symbol, parent, 0, {}});
    stack.back().word.reserve(element->children().size());
  };
  open(doc.root.get(), alphabet_.Intern(doc.root->name()), kInvalidSymbol);
  while (!stack.empty()) {
    VisitFrame& frame = stack.back();
    const auto& children = frame.element->children();
    if (frame.next_child < children.size()) {
      const XmlElement* child = children[frame.next_child++].get();
      Symbol cs = alphabet_.Intern(child->name());
      frame.word.push_back(cs);
      open(child, cs, frame.symbol);  // invalidates `frame`
    } else {
      for (ElementSummary* summary :
           {&Prepare(contexts_[{frame.symbol, frame.parent}]),
            &Prepare(pooled_[frame.symbol])}) {
        ++summary->occurrences;
        summary->AddChildWord(frame.word, 1, limits_);
        if (frame.element->HasSignificantText()) summary->has_text = true;
      }
      stack.pop_back();
    }
  }
}

Result<ContentModel> ContextualInferrer::InferContext(
    const ElementSummary& summary) const {
  ContentModel model;
  if (summary.crx.num_distinct_histograms() == 0) {
    model.kind =
        summary.has_text ? ContentKind::kPcdataOnly : ContentKind::kEmpty;
    return model;
  }
  if (summary.has_text) {
    model.kind = ContentKind::kMixed;
    for (int q = 0; q < summary.soa.NumStates(); ++q) {
      model.mixed_symbols.push_back(summary.soa.LabelOf(q));
    }
    std::sort(model.mixed_symbols.begin(), model.mixed_symbols.end());
    return model;
  }
  if (learner_ == nullptr) {
    return LearnerRegistry::Global().UnknownName(options_.learner);
  }
  Result<ReRef> re = learner_->Learn(summary, learn_options_);
  if (!re.ok()) return re.status();
  model.kind = ContentKind::kChildren;
  model.regex = re.value();
  return model;
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
  // Group contexts by element (contexts_ is keyed (element, parent), so
  // entries for one element are adjacent).
  std::map<Symbol, std::vector<std::pair<Symbol, const ElementSummary*>>>
      by_element;
  for (const auto& [key, state] : contexts_) {
    by_element[key.first].emplace_back(key.second, &state);
  }
  for (const auto& [element, parent_states] : by_element) {
    Report::ElementTypes entry;
    entry.element = element;
    for (const auto& [parent, state] : parent_states) {
      Result<ContentModel> model = InferContext(*state);
      if (!model.ok()) return model.status();
      bool merged = false;
      for (ContextType& type : entry.types) {
        if (SameModel(type.model, model.value())) {
          type.parents.push_back(parent);
          type.occurrences += state->occurrences;
          merged = true;
          break;
        }
      }
      if (!merged) {
        ContextType type;
        type.parents = {parent};
        type.model = model.value();
        type.occurrences = state->occurrences;
        entry.types.push_back(std::move(type));
      }
    }
    Result<ContentModel> merged = InferContext(pooled_.at(element));
    if (!merged.ok()) return merged.status();
    entry.merged = merged.value();
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

namespace {

/// Minimal particle renderer with an inline hook for context-dependent
/// child elements. `emit_element` renders one symbol occurrence (either
/// a global ref or an inline local declaration).
class LocalXsdPrinter {
 public:
  using EmitElement = std::function<void(Symbol, const std::string& occurs,
                                         int indent, std::string*)>;

  explicit LocalXsdPrinter(EmitElement emit) : emit_(std::move(emit)) {}

  void Particle(const ReRef& re, int min_occurs, int max_occurs,
                int indent, std::string* out) const {
    std::string occurs;
    if (min_occurs != 1) {
      occurs += " minOccurs=\"" + std::to_string(min_occurs) + "\"";
    }
    if (max_occurs < 0) {
      occurs += " maxOccurs=\"unbounded\"";
    } else if (max_occurs != 1) {
      occurs += " maxOccurs=\"" + std::to_string(max_occurs) + "\"";
    }
    std::string pad(indent * 2, ' ');
    switch (re->kind()) {
      case ReKind::kSymbol:
        emit_(re->symbol(), occurs, indent, out);
        return;
      case ReKind::kPlus:
        Particle(re->child(), min_occurs == 1 && max_occurs == 1 ? 1
                                                                 : min_occurs,
                 -1, indent, out);
        return;
      case ReKind::kOpt:
        Particle(re->child(), 0, max_occurs, indent, out);
        return;
      case ReKind::kStar:
        Particle(re->child(), 0, -1, indent, out);
        return;
      case ReKind::kConcat: {
        *out += pad + "<xs:sequence" + occurs + ">\n";
        for (const auto& c : re->children()) {
          Particle(c, 1, 1, indent + 1, out);
        }
        *out += pad + "</xs:sequence>\n";
        return;
      }
      case ReKind::kDisj: {
        *out += pad + "<xs:choice" + occurs + ">\n";
        for (const auto& c : re->children()) {
          Particle(c, 1, 1, indent + 1, out);
        }
        *out += pad + "</xs:choice>\n";
        return;
      }
      case ReKind::kShuffle: {
        *out += pad + "<xs:all" + occurs + ">\n";
        for (const auto& c : re->children()) {
          Particle(c, 1, 1, indent + 1, out);
        }
        *out += pad + "</xs:all>\n";
        return;
      }
    }
  }

 private:
  EmitElement emit_;
};

}  // namespace

Result<std::string> ContextualInferrer::InferLocalXsd() const {
  Result<Report> report_or = Infer();
  if (!report_or.ok()) return report_or.status();
  const Report& report = report_or.value();

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
              *text += pad + "    <xs:element ref=\"" +
                       alphabet_.Name(child) + "\"/>\n";
            }
            *text += pad + "  </xs:choice>\n";
            *text += pad + "</xs:complexType>\n";
            return;
          }
          case ContentKind::kChildren: {
            *text += pad + "<xs:complexType>\n";
            // complexType particles must be model groups; wrap a lone
            // element in a sequence.
            const Re* skeleton = model.regex.get();
            while (skeleton->kind() == ReKind::kPlus ||
                   skeleton->kind() == ReKind::kOpt ||
                   skeleton->kind() == ReKind::kStar) {
              skeleton = skeleton->child().get();
            }
            bool wrap = skeleton->kind() == ReKind::kSymbol;
            if (wrap) *text += pad + "  <xs:sequence>\n";
            LocalXsdPrinter printer([&](Symbol child,
                                        const std::string& occurs,
                                        int child_indent,
                                        std::string* inner) {
              std::string child_pad(child_indent * 2, ' ');
              bool in_chain = false;
              for (Symbol s : *chain) in_chain = in_chain || s == child;
              if (!is_contextual(child) || in_chain) {
                *inner += child_pad + "<xs:element ref=\"" +
                          alphabet_.Name(child) + "\"" + occurs + "/>\n";
                return;
              }
              // Inline local declaration with the (child, element) type.
              const ContentModel* child_model =
                  model_for_context(child, element);
              if (child_model->kind == ContentKind::kPcdataOnly) {
                *inner += child_pad + "<xs:element name=\"" +
                          alphabet_.Name(child) +
                          "\" type=\"xs:string\"" + occurs + "/>\n";
                return;
              }
              *inner += child_pad + "<xs:element name=\"" +
                        alphabet_.Name(child) + "\"" + occurs + ">\n";
              chain->push_back(child);
              render_body(child, *child_model, child_indent + 1, inner,
                          chain);
              chain->pop_back();
              *inner += child_pad + "</xs:element>\n";
            });
            printer.Particle(model.regex, 1, 1,
                             wrap ? indent + 2 : indent + 1, text);
            if (wrap) *text += pad + "  </xs:sequence>\n";
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
    if (model.kind == ContentKind::kPcdataOnly) {
      out += "  <xs:element name=\"" + alphabet_.Name(entry.element) +
             "\" type=\"xs:string\"/>\n";
      continue;
    }
    out += "  <xs:element name=\"" + alphabet_.Name(entry.element) +
           "\">\n";
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
    out += alphabet_.Name(entry.element);
    if (entry.types.size() == 1) {
      out += ": " + ContentModelToString(entry.types[0].model, alphabet_) +
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
                                        : alphabet_.Name(parent);
      }
      out += ": " + ContentModelToString(type.model, alphabet_) + " (" +
             std::to_string(type.occurrences) + " occurrences)\n";
    }
    out += "  DTD approximation: " +
           ContentModelToString(entry.merged, alphabet_) + "\n";
  }
  return out;
}

}  // namespace condtd
