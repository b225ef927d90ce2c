#include "xsd/writer.h"

#include <cctype>

#include "base/strings.h"

namespace condtd {

namespace {

std::string OccursAttributes(int min_occurs, int max_occurs) {
  std::string out;
  if (min_occurs != 1) {
    out += " minOccurs=\"" + std::to_string(min_occurs) + "\"";
  }
  if (max_occurs == NumericAnnotation::kUnbounded) {
    out += " maxOccurs=\"unbounded\"";
  } else if (max_occurs != 1) {
    out += " maxOccurs=\"" + std::to_string(max_occurs) + "\"";
  }
  return out;
}

// YYYY-MM-DD naming a day that exists: month 01-12, and a day within
// that month, February 29 only in leap years.
bool IsCalendarDate(std::string_view text) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return false;
  for (size_t j : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u}) {
    if (!std::isdigit(static_cast<unsigned char>(text[j]))) return false;
  }
  auto number = [&](size_t first, size_t length) {
    int value = 0;
    for (size_t j = first; j < first + length; ++j) {
      value = value * 10 + (text[j] - '0');
    }
    return value;
  };
  int year = number(0, 4);
  int month = number(5, 2);
  int day = number(8, 2);
  if (month < 1 || month > 12 || day < 1) return false;
  static constexpr int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  bool leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
  int days = kDaysInMonth[month - 1] + (month == 2 && leap ? 1 : 0);
  return day <= days;
}

}  // namespace

void XsdPrinter::ContentParticle(const ReRef& re, int indent,
                                 std::string* out) const {
  const Re* skeleton = re.get();
  while (skeleton->kind() == ReKind::kPlus ||
         skeleton->kind() == ReKind::kOpt ||
         skeleton->kind() == ReKind::kStar) {
    skeleton = skeleton->child().get();
  }
  if (skeleton->kind() != ReKind::kSymbol) {
    Particle(re, 1, 1, indent, out);
    return;
  }
  std::string pad(indent * 2, ' ');
  *out += pad + "<xs:sequence>\n";
  Particle(re, 1, 1, indent + 1, out);
  *out += pad + "</xs:sequence>\n";
}

void XsdPrinter::Particle(const ReRef& re, int min_occurs, int max_occurs,
                          int indent, std::string* out) const {
  // Fold unary operators into occurrence bounds where possible.
  switch (re->kind()) {
    case ReKind::kPlus:
    case ReKind::kStar:
    case ReKind::kOpt: {
      int child_min;
      int child_max;
      if (numeric_ != nullptr) {
        auto it = numeric_->find(re.get());
        if (it != numeric_->end()) {
          Particle(re->child(), it->second.min_occurs,
                   it->second.max_occurs, indent, out);
          return;
        }
      }
      if (re->kind() == ReKind::kPlus) {
        child_min = 1;
        child_max = NumericAnnotation::kUnbounded;
      } else if (re->kind() == ReKind::kStar) {
        child_min = 0;
        child_max = NumericAnnotation::kUnbounded;
      } else {
        child_min = 0;
        child_max = 1;
      }
      // Composing bounds of stacked operators is only exact for the
      // simple (and after normalization, only occurring) cases where
      // the outer particle has bounds 1..1.
      if (min_occurs == 1 && max_occurs == 1) {
        Particle(re->child(), child_min, child_max, indent, out);
        return;
      }
      // Otherwise wrap in a sequence carrying the outer bounds.
      std::string pad(indent * 2, ' ');
      *out += pad + "<xs:sequence" +
              OccursAttributes(min_occurs, max_occurs) + ">\n";
      Particle(re->child(), child_min, child_max, indent + 1, out);
      *out += pad + "</xs:sequence>\n";
      return;
    }
    case ReKind::kSymbol: {
      std::string occurs = OccursAttributes(min_occurs, max_occurs);
      if (emit_element_) {
        emit_element_(re->symbol(), occurs, indent, out);
        return;
      }
      std::string pad(indent * 2, ' ');
      *out += pad + "<xs:element ref=\"" + alphabet_.Name(re->symbol()) +
              "\"" + occurs + "/>\n";
      return;
    }
    case ReKind::kConcat: {
      std::string pad(indent * 2, ' ');
      *out += pad + "<xs:sequence" +
              OccursAttributes(min_occurs, max_occurs) + ">\n";
      for (const auto& c : re->children()) {
        Particle(c, 1, 1, indent + 1, out);
      }
      *out += pad + "</xs:sequence>\n";
      return;
    }
    case ReKind::kDisj: {
      std::string pad(indent * 2, ' ');
      *out += pad + "<xs:choice" + OccursAttributes(min_occurs, max_occurs) +
              ">\n";
      for (const auto& c : re->children()) {
        Particle(c, 1, 1, indent + 1, out);
      }
      *out += pad + "</xs:choice>\n";
      return;
    }
    case ReKind::kShuffle: {
      // Interleaving maps to the XSD all-group. XSD 1.0 restricts
      // xs:all to element particles; factor groups beyond that rely on
      // the 1.1 relaxation, which is the closest faithful rendering.
      std::string pad(indent * 2, ' ');
      *out += pad + "<xs:all" + OccursAttributes(min_occurs, max_occurs) +
              ">\n";
      for (const auto& c : re->children()) {
        Particle(c, 1, 1, indent + 1, out);
      }
      *out += pad + "</xs:all>\n";
      return;
    }
  }
}

std::string WriteXsd(const Dtd& dtd, const Alphabet& alphabet,
                     const std::map<Symbol, XsdElementExtras>& extras) {
  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";
  std::vector<Symbol> order;
  if (dtd.root != kInvalidSymbol && dtd.elements.count(dtd.root) > 0) {
    order.push_back(dtd.root);
  }
  for (const auto& [symbol, model] : dtd.elements) {
    if (symbol != dtd.root) order.push_back(symbol);
  }
  for (Symbol symbol : order) {
    const ContentModel& model = dtd.elements.at(symbol);
    auto extra_it = extras.find(symbol);
    const XsdElementExtras* extra =
        extra_it == extras.end() ? nullptr : &extra_it->second;
    const std::string& name = alphabet.Name(symbol);
    auto attrs_it = dtd.attributes.find(symbol);
    bool has_attrs =
        attrs_it != dtd.attributes.end() && !attrs_it->second.empty();

    auto write_attributes = [&](int indent) {
      if (has_attrs) WriteXsdAttributes(attrs_it->second, indent, &out);
    };

    switch (model.kind) {
      case ContentKind::kPcdataOnly:
        if (!has_attrs) {
          std::string type = extra != nullptr && !extra->text_type.empty()
                                 ? extra->text_type
                                 : "xs:string";
          out += "  <xs:element name=\"" + name + "\" type=\"" + type +
                 "\"/>\n";
        } else {
          out += "  <xs:element name=\"" + name + "\">\n";
          out += "    <xs:complexType mixed=\"true\">\n";
          write_attributes(3);
          out += "    </xs:complexType>\n";
          out += "  </xs:element>\n";
        }
        break;
      case ContentKind::kEmpty:
        out += "  <xs:element name=\"" + name + "\">\n";
        out += "    <xs:complexType>\n";
        write_attributes(3);
        out += "    </xs:complexType>\n";
        out += "  </xs:element>\n";
        break;
      case ContentKind::kAny:
        out += "  <xs:element name=\"" + name + "\">\n";
        out += "    <xs:complexType mixed=\"true\">\n";
        out += "      <xs:sequence>\n";
        out += "        <xs:any minOccurs=\"0\" maxOccurs=\"unbounded\" "
               "processContents=\"lax\"/>\n";
        out += "      </xs:sequence>\n";
        write_attributes(3);
        out += "    </xs:complexType>\n";
        out += "  </xs:element>\n";
        break;
      case ContentKind::kMixed: {
        out += "  <xs:element name=\"" + name + "\">\n";
        out += "    <xs:complexType mixed=\"true\">\n";
        out += "      <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n";
        for (Symbol child : model.mixed_symbols) {
          out += "        <xs:element ref=\"" + alphabet.Name(child) +
                 "\"/>\n";
        }
        out += "      </xs:choice>\n";
        write_attributes(3);
        out += "    </xs:complexType>\n";
        out += "  </xs:element>\n";
        break;
      }
      case ContentKind::kChildren: {
        out += "  <xs:element name=\"" + name + "\">\n";
        out += "    <xs:complexType>\n";
        XsdPrinter(alphabet, extra != nullptr ? &extra->numeric : nullptr)
            .ContentParticle(model.regex, 3, &out);
        write_attributes(3);
        out += "    </xs:complexType>\n";
        out += "  </xs:element>\n";
        break;
      }
    }
  }
  out += "</xs:schema>\n";
  return out;
}

void WriteXsdAttributes(const std::vector<Dtd::AttributeDef>& attributes,
                        int indent, std::string* out) {
  std::string pad(indent * 2, ' ');
  for (const Dtd::AttributeDef& def : attributes) {
    *out += pad + "<xs:attribute name=\"" + def.name +
            "\" type=\"xs:string\"";
    if (def.default_decl == "#REQUIRED") *out += " use=\"required\"";
    *out += "/>\n";
  }
}

uint8_t TextTypes(std::string_view value) {
  std::string_view text = StripWhitespace(value);
  if (text.empty()) return 0;
  uint8_t types = 0;
  if (text == "true" || text == "false" || text == "0" || text == "1") {
    types |= kTextBoolean;
  }
  // integer / decimal: an optional sign, then digits with at most one
  // dot, and at least one digit.
  size_t i = text[0] == '+' || text[0] == '-' ? 1 : 0;
  int digits = 0;
  int dots = 0;
  for (; i < text.size(); ++i) {
    if (text[i] == '.') {
      ++dots;
    } else if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++digits;
    } else {
      break;
    }
  }
  if (i == text.size() && digits > 0) {
    if (dots == 0) types |= kTextInteger;
    if (dots <= 1) types |= kTextDecimal;
  }
  if (IsCalendarDate(text)) types |= kTextDate;
  return types;
}

std::string_view SimpleTypeName(uint8_t types) {
  if (types & kTextBoolean) return "xs:boolean";
  if (types & kTextInteger) return "xs:integer";
  if (types & kTextDecimal) return "xs:decimal";
  if (types & kTextDate) return "xs:date";
  return "xs:string";
}

}  // namespace condtd
