#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "dtd/dtd_parser.h"
#include "xsd/numeric.h"
#include "xsd/writer.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;

TEST(Numeric, ExactAndLowerBounds) {
  // Sample aabb+ -> a=2 b>=2 (the paper's Section 9 example).
  Alphabet alphabet;
  ReRef re = ParseChars("a+b+", &alphabet);
  std::vector<Word> sample = {
      alphabet.WordFromChars("aabb"),
      alphabet.WordFromChars("aabbb"),
      alphabet.WordFromChars("aabbbb"),
  };
  NumericAnnotations annotations = AnnotateNumeric(re, sample);
  ASSERT_EQ(annotations.size(), 2u);
  EXPECT_EQ(ToNumericString(re, annotations, alphabet), "a=2 b>=2");
}

TEST(Numeric, StarFactorsMayHaveZeroMin) {
  Alphabet alphabet;
  ReRef re = ParseChars("a*b", &alphabet);
  std::vector<Word> sample = {
      alphabet.WordFromChars("b"),
      alphabet.WordFromChars("aaab"),
  };
  NumericAnnotations annotations = AnnotateNumeric(re, sample);
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(ToNumericString(re, annotations, alphabet), "a>=0 b");
}

TEST(Numeric, DisjunctionFactor) {
  Alphabet alphabet;
  ReRef re = ParseChars("(a|b)+c", &alphabet);
  std::vector<Word> sample = {
      alphabet.WordFromChars("abc"),
      alphabet.WordFromChars("bac"),
      alphabet.WordFromChars("aac"),
  };
  NumericAnnotations annotations = AnnotateNumeric(re, sample);
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(ToNumericString(re, annotations, alphabet), "(a + b)=2 c");
}

TEST(Numeric, NonSoreGetsNoAnnotations) {
  Alphabet alphabet;
  ReRef re = ParseChars("a(a|b)*", &alphabet);
  EXPECT_TRUE(AnnotateNumeric(re, {alphabet.WordFromChars("ab")}).empty());
}

TEST(XsdWriter, StructuralOutput) {
  Alphabet alphabet;
  Result<Dtd> dtd = ParseDtd(
      "<!ELEMENT r (a+, (b | c)?)>\n"
      "<!ELEMENT a (#PCDATA)>\n"
      "<!ELEMENT b EMPTY>\n"
      "<!ELEMENT c (#PCDATA | a)*>\n"
      "<!ATTLIST r id CDATA #REQUIRED>\n",
      &alphabet);
  ASSERT_TRUE(dtd.ok());
  std::string xsd = WriteXsd(dtd.value(), alphabet);
  EXPECT_NE(xsd.find("<xs:schema"), std::string::npos);
  EXPECT_NE(xsd.find("<xs:element name=\"r\">"), std::string::npos);
  EXPECT_NE(xsd.find("<xs:element ref=\"a\" maxOccurs=\"unbounded\"/>"),
            std::string::npos)
      << xsd;
  EXPECT_NE(xsd.find("<xs:choice minOccurs=\"0\">"), std::string::npos)
      << xsd;
  EXPECT_NE(xsd.find("mixed=\"true\""), std::string::npos);
  EXPECT_NE(xsd.find("use=\"required\""), std::string::npos);
  EXPECT_NE(xsd.find("type=\"xs:string\""), std::string::npos);
}

TEST(XsdWriter, NumericExtrasOverrideBounds) {
  Alphabet alphabet;
  Result<Dtd> dtd = ParseDtd("<!ELEMENT r (a+)> <!ELEMENT a EMPTY>",
                             &alphabet);
  ASSERT_TRUE(dtd.ok());
  const ContentModel& model = dtd->elements.at(alphabet.Find("r"));
  std::map<Symbol, XsdElementExtras> extras;
  NumericAnnotation bounds;
  bounds.min_occurs = 3;
  bounds.max_occurs = NumericAnnotation::kUnbounded;
  extras[alphabet.Find("r")].numeric[model.regex.get()] = bounds;
  std::string xsd = WriteXsd(dtd.value(), alphabet, extras);
  EXPECT_NE(xsd.find("minOccurs=\"3\" maxOccurs=\"unbounded\""),
            std::string::npos)
      << xsd;
}

/// The type an element whose text values are `values` declares: the
/// first surviving bit of the AND of their TextTypes.
std::string_view TypeOf(std::initializer_list<std::string_view> values) {
  uint8_t types = kAllTextTypes;
  for (std::string_view value : values) types &= TextTypes(value);
  return SimpleTypeName(types);
}

TEST(SimpleType, Heuristics) {
  EXPECT_EQ(TypeOf({"1", "42", "-7"}), "xs:integer");
  EXPECT_EQ(TypeOf({"1.5", "2"}), "xs:decimal");
  EXPECT_EQ(TypeOf({"2006-09-12", "2026-07-04"}), "xs:date");
  EXPECT_EQ(TypeOf({"true", "false"}), "xs:boolean");
  EXPECT_EQ(TypeOf({"hello", "1"}), "xs:string");
  // An empty or blank value satisfies no type.
  EXPECT_EQ(TextTypes(""), 0);
  EXPECT_EQ(TextTypes(" \n\t"), 0);
  EXPECT_EQ(SimpleTypeName(0), "xs:string");
  // Values are whitespace-stripped before they are tested.
  EXPECT_EQ(TypeOf({" 42\n", "\t7"}), "xs:integer");
  // A decimal needs a digit; a date needs a day that exists.
  EXPECT_EQ(TypeOf({"."}), "xs:string");
  EXPECT_EQ(TypeOf({"-."}), "xs:string");
  EXPECT_EQ(TypeOf({".", "1.5"}), "xs:string");
  EXPECT_EQ(TypeOf({".5", "1."}), "xs:decimal");
  EXPECT_EQ(TypeOf({"2024-13-45"}), "xs:string");
  EXPECT_EQ(TypeOf({"2023-02-29"}), "xs:string");
  EXPECT_EQ(TypeOf({"2024-04-31"}), "xs:string");
  EXPECT_EQ(TypeOf({"2024-00-10"}), "xs:string");
  EXPECT_EQ(TypeOf({"2024-02-29"}), "xs:date");
  EXPECT_EQ(TypeOf({"2000-02-29", "1999-12-31"}), "xs:date");
  EXPECT_EQ(TypeOf({"1900-02-29"}), "xs:string");
}

}  // namespace
}  // namespace condtd
