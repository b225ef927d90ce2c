#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace condtd {
namespace {

TEST(XmlParser, MinimalDocument) {
  Result<XmlDocument> doc = ParseXml("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root->name(), "root");
  EXPECT_TRUE(doc->root->children().empty());
}

TEST(XmlParser, NestedElementsInOrder) {
  Result<XmlDocument> doc = ParseXml(
      "<book><title>T</title><author>A</author><author>B</author></book>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->children().size(), 3u);
  EXPECT_EQ(doc->root->children()[0]->name(), "title");
  EXPECT_EQ(doc->root->children()[1]->name(), "author");
  EXPECT_EQ(doc->root->children()[2]->name(), "author");
  EXPECT_EQ(doc->root->children()[0]->text(), "T");
}

TEST(XmlParser, AttributesAndEntities) {
  Result<XmlDocument> doc = ParseXml(
      "<a x=\"1 &amp; 2\" y='&#65;&lt;'><b z/></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->attributes().size(), 2u);
  EXPECT_EQ(*doc->root->FindAttribute("x"), "1 & 2");
  EXPECT_EQ(*doc->root->FindAttribute("y"), "A<");
  // Valueless attribute (noisy HTML-style) is tolerated.
  EXPECT_NE(doc->root->children()[0]->FindAttribute("z"), nullptr);
}

TEST(XmlParser, CommentsPIsCdata) {
  Result<XmlDocument> doc = ParseXml(
      "<?xml version=\"1.0\"?><!-- hi --><r><![CDATA[<not-a-tag>]]></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "<not-a-tag>");
}

TEST(XmlParser, DoctypeWithInternalSubset) {
  Result<XmlDocument> doc = ParseXml(
      "<!DOCTYPE r [ <!ELEMENT r (a, b?)> <!ELEMENT a EMPTY> ]>"
      "<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->doctype.find("<!ELEMENT r"), std::string::npos);
}

TEST(XmlParser, UnknownEntityKeptVerbatim) {
  Result<XmlDocument> doc = ParseXml("<r>&nbsp;x</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->text(), "&nbsp;x");
}

TEST(XmlEntities, NumericReferenceEdgeCases) {
  // Regression (fuzz corpus): overflowing, empty, NUL and surrogate
  // numeric references previously hit signed-overflow UB or produced
  // ill-formed UTF-8; all must now be rejected as parse errors.
  std::string out;
  EXPECT_FALSE(DecodeXmlEntities("&#99999999999999999999;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#xFFFFFFFFFFFFFFFFF;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#x;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#0;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#xD800;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#xDFFF;", &out).ok());
  EXPECT_FALSE(DecodeXmlEntities("&#x110000;", &out).ok());

  std::string astral;
  ASSERT_TRUE(DecodeXmlEntities("&#x10FFFF;", &astral).ok());
  EXPECT_EQ(astral, "\xF4\x8F\xBF\xBF");  // astral plane: 4-byte UTF-8
  std::string ascii;
  ASSERT_TRUE(DecodeXmlEntities("&#65;&#x42;", &ascii).ok());
  EXPECT_EQ(ascii, "AB");
}

/// The streaming fold's status for one document, strict or lenient.
Status FoldStatus(const std::string& xml, bool lenient) {
  InferenceOptions options;
  options.lenient_xml = lenient;
  DtdInferrer inferrer(options);
  StreamingFolder folder(&inferrer);
  return folder.AddXml(xml);
}

TEST(XmlParser, DeepNestingRejectedNotOverflowed) {
  // Regression (fuzz corpus): unbounded element depth recursed through
  // the tree destructor; the parser now caps nesting instead. The
  // streaming fold holds one frame per open element, so it enforces the
  // same cap with the same message, strict and lenient.
  std::string deep;
  for (int i = 0; i < 12000; ++i) deep += "<d>";
  Result<XmlDocument> strict = ParseXml("<r>" + deep + "</r>");
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.status().ToString().find("nesting"), std::string::npos)
      << strict.status().ToString();
  std::vector<std::string> recovered;
  Result<XmlDocument> lenient = ParseXmlLenient("<r>" + deep, &recovered);
  EXPECT_FALSE(lenient.ok());
  EXPECT_EQ(FoldStatus("<r>" + deep + "</r>", false).ToString(),
            strict.status().ToString());
  EXPECT_EQ(FoldStatus("<r>" + deep, true).ToString(),
            lenient.status().ToString());
}

TEST(XmlParser, NestingCapBoundaryIsSharedWithTheFold) {
  // kMaxElementDepth open elements are fine, one more is not; a
  // self-closing leaf below the deepest open element does not count.
  auto nested = [](size_t open_elements) {
    std::string xml;
    for (size_t i = 0; i < open_elements; ++i) xml += "<d>";
    xml += "<leaf/>";
    for (size_t i = 0; i < open_elements; ++i) xml += "</d>";
    return xml;
  };
  const std::string at_cap = nested(kMaxElementDepth);
  const std::string over_cap = nested(kMaxElementDepth + 1);
  EXPECT_TRUE(ParseXml(at_cap).ok());
  EXPECT_TRUE(ParseXmlLenient(at_cap).ok());
  Result<XmlDocument> rejected = ParseXml(over_cap);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().ToString(),
            "ParseError: element nesting deeper than 10000");
  for (bool lenient : {false, true}) {
    EXPECT_TRUE(FoldStatus(at_cap, lenient).ok()) << lenient;
    EXPECT_EQ(FoldStatus(over_cap, lenient).ToString(),
              rejected.status().ToString())
        << lenient;
  }
}

TEST(XmlParser, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("</a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("text only").ok());
  EXPECT_FALSE(ParseXml("<a x=unquoted/>").ok());
  EXPECT_FALSE(ParseXml("<a><!-- unterminated").ok());
}

TEST(XmlParser, RoundTripThroughToXml) {
  Result<XmlDocument> doc = ParseXml(
      "<r a=\"v\"><x/><y>text</y><x><z/></x></r>");
  ASSERT_TRUE(doc.ok());
  std::string serialized = doc->ToXml();
  Result<XmlDocument> again = ParseXml(serialized);
  ASSERT_TRUE(again.ok()) << serialized;
  EXPECT_EQ(again->root->children().size(), 3u);
  EXPECT_EQ(*again->root->FindAttribute("a"), "v");
}

}  // namespace
}  // namespace condtd
