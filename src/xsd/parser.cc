#include "xsd/parser.h"

#include <string>
#include <vector>

#include "xml/parser.h"

namespace condtd {

namespace {

/// Local name of a possibly-prefixed QName ("xs:element" → "element").
std::string_view LocalName(const std::string& qname) {
  size_t colon = qname.rfind(':');
  return colon == std::string::npos
             ? std::string_view(qname)
             : std::string_view(qname).substr(colon + 1);
}

Result<std::pair<int, int>> ReadOccurs(const XmlElement& element) {
  int min_occurs = 1;
  int max_occurs = 1;
  if (const std::string* raw = element.FindAttribute("minOccurs")) {
    min_occurs = std::atoi(raw->c_str());
    if (min_occurs < 0) {
      return Status::InvalidArgument("negative minOccurs");
    }
  }
  if (const std::string* raw = element.FindAttribute("maxOccurs")) {
    if (*raw == "unbounded") {
      max_occurs = -1;
    } else {
      max_occurs = std::atoi(raw->c_str());
      if (max_occurs < 1) {
        return Status::InvalidArgument("maxOccurs must be >= 1 or "
                                       "'unbounded'");
      }
    }
  }
  if (max_occurs != -1 && min_occurs > max_occurs) {
    return Status::InvalidArgument("minOccurs > maxOccurs");
  }
  return std::make_pair(min_occurs, max_occurs);
}

class XsdReader {
 public:
  explicit XsdReader(Alphabet* alphabet) : alphabet_(alphabet) {}

  Status ReadSchema(const XmlElement& schema, Dtd* dtd) {
    if (LocalName(schema.name()) != "schema") {
      return Status::InvalidArgument("root element is not xs:schema");
    }
    for (const auto& child : schema.children()) {
      if (LocalName(child->name()) != "element") {
        return Status::InvalidArgument(
            "unsupported top-level construct: " + child->name());
      }
      CONDTD_RETURN_IF_ERROR(ReadGlobalElement(*child, dtd));
    }
    return Status::OK();
  }

 private:
  Status ReadGlobalElement(const XmlElement& element, Dtd* dtd) {
    const std::string* name = element.FindAttribute("name");
    if (name == nullptr) {
      return Status::InvalidArgument("global xs:element without a name");
    }
    Symbol symbol = alphabet_->Intern(*name);
    if (dtd->root == kInvalidSymbol) dtd->root = symbol;

    ContentModel model;
    if (element.FindAttribute("type") != nullptr) {
      // Built-in simple type → text-only content.
      model.kind = ContentKind::kPcdataOnly;
      dtd->elements[symbol] = std::move(model);
      return Status::OK();
    }
    const XmlElement* complex_type = nullptr;
    for (const auto& child : element.children()) {
      if (LocalName(child->name()) == "complexType") {
        complex_type = child.get();
      }
    }
    if (complex_type == nullptr) {
      model.kind = ContentKind::kPcdataOnly;  // <xs:element name="e"/>
      dtd->elements[symbol] = std::move(model);
      return Status::OK();
    }
    CONDTD_RETURN_IF_ERROR(
        ReadComplexType(*complex_type, symbol, &model, dtd));
    dtd->elements[symbol] = std::move(model);
    return Status::OK();
  }

  Status ReadComplexType(const XmlElement& complex_type, Symbol symbol,
                         ContentModel* model, Dtd* dtd) {
    const std::string* mixed = complex_type.FindAttribute("mixed");
    bool is_mixed = mixed != nullptr && *mixed == "true";

    const XmlElement* particle = nullptr;
    for (const auto& child : complex_type.children()) {
      std::string_view local = LocalName(child->name());
      if (local == "attribute") {
        Dtd::AttributeDef def;
        const std::string* attr_name = child->FindAttribute("name");
        if (attr_name == nullptr) {
          return Status::InvalidArgument("xs:attribute without a name");
        }
        def.name = *attr_name;
        def.type = "CDATA";
        const std::string* use = child->FindAttribute("use");
        def.default_decl =
            use != nullptr && *use == "required" ? "#REQUIRED" : "#IMPLIED";
        dtd->attributes[symbol].push_back(std::move(def));
        continue;
      }
      if (local == "sequence" || local == "choice" || local == "element") {
        if (particle != nullptr) {
          return Status::InvalidArgument(
              "multiple content particles in one complexType");
        }
        particle = child.get();
        continue;
      }
      return Status::InvalidArgument("unsupported construct xs:" +
                                     std::string(local));
    }
    // Detect the xs:any idiom the writer uses for ANY.
    if (particle != nullptr && LocalName(particle->name()) == "sequence" &&
        particle->children().size() == 1 &&
        LocalName(particle->children()[0]->name()) == "any") {
      model->kind = ContentKind::kAny;
      return Status::OK();
    }
    if (is_mixed) {
      if (particle == nullptr) {
        model->kind = ContentKind::kPcdataOnly;
        return Status::OK();
      }
      if (LocalName(particle->name()) != "choice") {
        return Status::InvalidArgument(
            "mixed content must be a repeated xs:choice of refs");
      }
      model->kind = ContentKind::kMixed;
      for (const auto& ref : particle->children()) {
        const std::string* name = ref->FindAttribute("ref");
        if (name == nullptr) name = ref->FindAttribute("name");
        if (LocalName(ref->name()) != "element" || name == nullptr) {
          return Status::InvalidArgument(
              "mixed choice must contain element refs");
        }
        model->mixed_symbols.push_back(alphabet_->Intern(*name));
      }
      return Status::OK();
    }
    if (particle == nullptr) {
      model->kind = ContentKind::kEmpty;
      return Status::OK();
    }
    Result<ReRef> re = ReadParticle(*particle);
    if (!re.ok()) return re.status();
    if (re.value() == nullptr) {
      model->kind = ContentKind::kEmpty;
      return Status::OK();
    }
    model->kind = ContentKind::kChildren;
    model->regex = re.value();
    return Status::OK();
  }

  /// Converts a particle to an RE (nullptr = the empty word only).
  Result<ReRef> ReadParticle(const XmlElement& particle) {
    Result<std::pair<int, int>> occurs = ReadOccurs(particle);
    if (!occurs.ok()) return occurs.status();
    auto [min_occurs, max_occurs] = occurs.value();

    std::string_view local = LocalName(particle.name());
    ReRef body;
    if (local == "element") {
      const std::string* name = particle.FindAttribute("ref");
      if (name == nullptr) name = particle.FindAttribute("name");
      if (name == nullptr) {
        return Status::InvalidArgument("particle element without ref/name");
      }
      body = Re::Sym(alphabet_->Intern(*name));
    } else if (local == "sequence" || local == "choice") {
      std::vector<ReRef> parts;
      for (const auto& child : particle.children()) {
        Result<ReRef> part = ReadParticle(*child);
        if (!part.ok()) return part;
        if (part.value() != nullptr) parts.push_back(part.value());
      }
      if (parts.empty()) return ReRef(nullptr);
      body = local == "sequence" ? Re::Concat(std::move(parts))
                                 : Re::Disj(std::move(parts));
    } else {
      return Status::InvalidArgument("unsupported particle xs:" +
                                     std::string(local));
    }
    return ExpandOccurrences(body, min_occurs, max_occurs);
  }

  Alphabet* alphabet_;
};

}  // namespace

ReRef ExpandOccurrences(const ReRef& re, int min_occurs, int max_occurs) {
  if (max_occurs == 0) return nullptr;
  if (min_occurs == 0 && max_occurs == 1) return Re::Opt(re);
  if (min_occurs == 1 && max_occurs == 1) return re;
  if (max_occurs < 0) {
    // {0,∞} → r*; {1,∞} → r+; {m,∞} → r^(m-1) r+.
    if (min_occurs == 0) return Re::Star(re);
    std::vector<ReRef> parts(min_occurs - 1, re);
    parts.push_back(Re::Plus(re));
    return Re::Concat(std::move(parts));
  }
  // {m,n} with n finite: m mandatory copies, then n-m nested optionals
  // (r (r ...)?)? so any count in [m, n] matches deterministically.
  ReRef tail;
  for (int i = 0; i < max_occurs - min_occurs; ++i) {
    tail = tail == nullptr ? Re::Opt(re)
                           : Re::Opt(Re::Concat({re, tail}));
  }
  std::vector<ReRef> parts(min_occurs, re);
  if (tail != nullptr) parts.push_back(std::move(tail));
  return Re::Concat(std::move(parts));
}

Result<Dtd> ParseXsd(std::string_view xsd_text, Alphabet* alphabet) {
  if (alphabet == nullptr) {
    return Status::InvalidArgument("alphabet must not be null");
  }
  Result<XmlDocument> doc = ParseXml(xsd_text);
  if (!doc.ok()) return doc.status();
  Dtd dtd;
  XsdReader reader(alphabet);
  CONDTD_RETURN_IF_ERROR(reader.ReadSchema(*doc->root, &dtd));
  return dtd;
}

}  // namespace condtd
