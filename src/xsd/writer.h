#ifndef CONDTD_XSD_WRITER_H_
#define CONDTD_XSD_WRITER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dtd/model.h"
#include "xsd/numeric.h"

namespace condtd {

/// Extra per-element information the XSD writer can exploit beyond what
/// a DTD expresses (Section 9, "Generation of XSDs").
struct XsdElementExtras {
  /// Occurrence bounds (minOccurs/maxOccurs) for content-model nodes.
  NumericAnnotations numeric;
  /// Built-in simple type for text content ("xs:integer", ...); empty
  /// means xs:string.
  std::string text_type;
};

/// Renders content-model REs as XSD particles, folding unary operators
/// into minOccurs/maxOccurs (with `numeric`'s bounds where it has them).
/// Element occurrences render as global refs, or through `emit_element`
/// when one is given — the hook local element declarations use.
class XsdPrinter {
 public:
  /// Renders one occurrence of `element` at `indent`; `occurs` holds its
  /// minOccurs/maxOccurs attributes (empty for 1..1), leading space
  /// included.
  using EmitElement = std::function<void(
      Symbol element, const std::string& occurs, int indent, std::string*)>;

  XsdPrinter(const Alphabet& alphabet, const NumericAnnotations* numeric,
             EmitElement emit_element = nullptr)
      : alphabet_(alphabet),
        numeric_(numeric),
        emit_element_(std::move(emit_element)) {}

  /// Renders `re` as a complexType's particle at `indent`. That particle
  /// must be a model group, so a model that boils down to one element is
  /// wrapped in an xs:sequence.
  void ContentParticle(const ReRef& re, int indent, std::string* out) const;

  /// Renders `re` as a particle with the given occurrence bounds.
  void Particle(const ReRef& re, int min_occurs, int max_occurs, int indent,
                std::string* out) const;

 private:
  const Alphabet& alphabet_;
  const NumericAnnotations* numeric_;
  EmitElement emit_element_;
};

/// Renders `attributes` as xs:string xs:attribute declarations at
/// `indent`, with use="required" for the #REQUIRED ones.
void WriteXsdAttributes(const std::vector<Dtd::AttributeDef>& attributes,
                        int indent, std::string* out);

/// Serializes the DTD as a W3C XML Schema document (the 85% of XSDs that
/// are structurally equivalent to a DTD, per [9]). Uses one global
/// xs:element per name with ref-based content models.
std::string WriteXsd(const Dtd& dtd, const Alphabet& alphabet,
                     const std::map<Symbol, XsdElementExtras>& extras = {});

/// Section 9's datatype heuristic as a bit mask: the built-in simple
/// types a text value satisfies. A summary ANDs the masks of all its
/// values, so the result is exact over a corpus and merges associatively.
enum TextTypeBit : uint8_t {
  kTextBoolean = 1,  ///< true, false, 0 or 1
  kTextInteger = 2,  ///< an optional sign, then digits
  kTextDecimal = 4,  ///< as integer, with at most one dot
  kTextDate = 8,     ///< YYYY-MM-DD naming a day that exists
};
/// Every bit: the mask of a summary that has seen no text value yet.
inline constexpr uint8_t kAllTextTypes =
    kTextBoolean | kTextInteger | kTextDecimal | kTextDate;

/// The types `value`, whitespace-stripped, satisfies. A decimal needs at
/// least one digit, and a date must name a day that exists (February 29
/// only in leap years). An empty value satisfies none.
uint8_t TextTypes(std::string_view value);

/// The type a mask declares: its first bit in the order boolean,
/// integer, decimal, date, or "xs:string" with no bit set.
std::string_view SimpleTypeName(uint8_t types);

}  // namespace condtd

#endif  // CONDTD_XSD_WRITER_H_
