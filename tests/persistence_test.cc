#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "dtd/validator.h"
#include "gen/random_dtd.h"
#include "gen/xml_gen.h"
#include "infer/inferrer.h"
#include "infer/summary.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/properties.h"
#include "xml/parser.h"
#include "xsd/parser.h"
#include "xsd/writer.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;

// --- XSD reader -----------------------------------------------------------

TEST(XsdParser, RoundTripThroughWriterAndReader) {
  // DTD -> XSD (writer) -> DTD (reader): the content models must stay
  // language-equivalent.
  Alphabet alphabet;
  Result<Dtd> original = ParseDtd(
      "<!ELEMENT r (a+, (b | c)?, d*)>\n"
      "<!ELEMENT a (#PCDATA)>\n"
      "<!ELEMENT b EMPTY>\n"
      "<!ELEMENT c (#PCDATA | a)*>\n"
      "<!ELEMENT d ANY>\n"
      "<!ATTLIST r id CDATA #REQUIRED note CDATA #IMPLIED>\n",
      &alphabet);
  ASSERT_TRUE(original.ok());
  std::string xsd = WriteXsd(original.value(), alphabet);

  Alphabet alphabet2;
  Result<Dtd> parsed = ParseXsd(xsd, &alphabet2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << xsd;
  ASSERT_EQ(parsed->elements.size(), original->elements.size());
  for (const auto& [symbol, model] : original->elements) {
    Symbol symbol2 = alphabet2.Find(alphabet.Name(symbol));
    ASSERT_NE(symbol2, kInvalidSymbol);
    const ContentModel& model2 = parsed->elements.at(symbol2);
    EXPECT_EQ(model2.kind, model.kind) << alphabet.Name(symbol);
    if (model.kind == ContentKind::kChildren) {
      // Symbol ids coincide here because both alphabets intern the same
      // names in compatible order; verify to be safe, then compare.
      for (Symbol s : SymbolsOf(model.regex)) {
        ASSERT_EQ(alphabet2.Find(alphabet.Name(s)), s);
      }
      EXPECT_TRUE(LanguageEquivalent(model.regex, model2.regex))
          << alphabet.Name(symbol);
    }
  }
  const auto& attrs = parsed->attributes.at(alphabet2.Find("r"));
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0].default_decl, "#REQUIRED");
  EXPECT_EQ(attrs[1].default_decl, "#IMPLIED");
}

TEST(XsdParser, NumericBoundsExpand) {
  Alphabet alphabet;
  Result<Dtd> dtd = ParseXsd(
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">"
      "<xs:element name=\"game\"><xs:complexType><xs:sequence>"
      "<xs:element ref=\"player\" minOccurs=\"2\" maxOccurs=\"2\"/>"
      "<xs:element ref=\"move\" minOccurs=\"2\" maxOccurs=\"unbounded\"/>"
      "<xs:element ref=\"note\" minOccurs=\"0\" maxOccurs=\"3\"/>"
      "</xs:sequence></xs:complexType></xs:element>"
      "<xs:element name=\"player\" type=\"xs:string\"/>"
      "<xs:element name=\"move\" type=\"xs:string\"/>"
      "<xs:element name=\"note\" type=\"xs:string\"/>"
      "</xs:schema>",
      &alphabet);
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const ContentModel& game = dtd->elements.at(alphabet.Find("game"));
  ASSERT_EQ(game.kind, ContentKind::kChildren);
  condtd::Matcher matcher(game.regex);
  Symbol p = alphabet.Find("player");
  Symbol m = alphabet.Find("move");
  Symbol n = alphabet.Find("note");
  EXPECT_TRUE(matcher.Matches({p, p, m, m}));
  EXPECT_TRUE(matcher.Matches({p, p, m, m, m, n, n, n}));
  EXPECT_FALSE(matcher.Matches({p, m, m}));        // one player
  EXPECT_FALSE(matcher.Matches({p, p, p, m, m}));  // three players
  EXPECT_FALSE(matcher.Matches({p, p, m}));        // one move
  EXPECT_FALSE(matcher.Matches({p, p, m, m, n, n, n, n}));  // four notes
}

TEST(XsdParser, RejectsUnsupportedConstructs) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseXsd("<not-a-schema/>", &alphabet).ok());
  EXPECT_FALSE(
      ParseXsd("<xs:schema><xs:complexType name=\"t\"/></xs:schema>",
               &alphabet)
          .ok());
  EXPECT_FALSE(
      ParseXsd("<xs:schema><xs:element name=\"e\"><xs:complexType>"
               "<xs:all/></xs:complexType></xs:element></xs:schema>",
               &alphabet)
          .ok());
}

TEST(ExpandOccurrences, AllShapes) {
  Alphabet alphabet;
  ReRef a = ParseChars("a", &alphabet);
  EXPECT_EQ(ToString(ExpandOccurrences(a, 1, 1), alphabet), "a");
  EXPECT_EQ(ToString(ExpandOccurrences(a, 0, 1), alphabet), "a?");
  EXPECT_EQ(ToString(ExpandOccurrences(a, 0, -1), alphabet), "a*");
  EXPECT_EQ(ToString(ExpandOccurrences(a, 1, -1), alphabet), "a+");
  EXPECT_EQ(ToString(ExpandOccurrences(a, 3, -1), alphabet), "a a a+");
  EXPECT_EQ(ToString(ExpandOccurrences(a, 2, 4), alphabet),
            "a a (a a?)?");
  EXPECT_EQ(ExpandOccurrences(a, 0, 0), nullptr);
  // Language check: {2,4} accepts exactly 2..4 repetitions.
  ReRef bounded = ExpandOccurrences(a, 2, 4);
  Symbol s = alphabet.Find("a");
  Matcher matcher(bounded);
  EXPECT_FALSE(matcher.Matches({s}));
  EXPECT_TRUE(matcher.Matches({s, s}));
  EXPECT_TRUE(matcher.Matches({s, s, s, s}));
  EXPECT_FALSE(matcher.Matches({s, s, s, s, s}));
}

TEST(XsdParser, RandomDtdRoundTripFuzz) {
  // Random DTDs through writer → reader: every content model must come
  // back language-equivalent (symbol ids align because both alphabets
  // intern e0..e(n-1) in order).
  Rng rng(20060912);
  for (int trial = 0; trial < 15; ++trial) {
    Alphabet alphabet;
    Dtd truth = RandomDtd(&alphabet, &rng);
    std::string xsd = WriteXsd(truth, alphabet);

    Alphabet alphabet2;
    for (int i = 0; i < alphabet.size(); ++i) {
      alphabet2.Intern(alphabet.Name(i));
    }
    Result<Dtd> parsed = ParseXsd(xsd, &alphabet2);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << xsd;
    ASSERT_EQ(parsed->elements.size(), truth.elements.size());
    for (const auto& [symbol, model] : truth.elements) {
      const ContentModel& model2 = parsed->elements.at(symbol);
      ASSERT_EQ(model2.kind, model.kind) << alphabet.Name(symbol);
      if (model.kind == ContentKind::kChildren) {
        EXPECT_TRUE(LanguageEquivalent(model.regex, model2.regex))
            << alphabet.Name(symbol) << " in\n"
            << xsd;
      }
    }
  }
}

// --- Inferrer state persistence ------------------------------------------------

TEST(StatePersistence, SaveLoadRoundTripsTheDtd) {
  Alphabet gen_alphabet;
  Result<Dtd> truth = ParseDtd(
      "<!ELEMENT db (rec+)>\n"
      "<!ELEMENT rec (k, v?, note*)>\n"
      "<!ELEMENT k (#PCDATA)>\n"
      "<!ELEMENT v (#PCDATA)>\n"
      "<!ELEMENT note (#PCDATA)>\n"
      "<!ATTLIST rec id CDATA #REQUIRED>\n",
      &gen_alphabet);
  ASSERT_TRUE(truth.ok());
  Rng rng(77);
  std::vector<std::string> generated;
  for (int i = 0; i < 60; ++i) {
    Result<XmlDocument> doc =
        GenerateDocument(truth.value(), gen_alphabet, &rng);
    generated.push_back(doc->ToXml());
  }
  for (const std::vector<std::string>& docs :
       {generated, testing_util::kTwoRootDocs, testing_util::kSoaOrderDocs}) {
    DtdInferrer original;
    for (const std::string& doc : docs) {
      ASSERT_TRUE(original.AddXml(doc).ok());
    }
    std::string state = original.SaveState();

    DtdInferrer restored;
    ASSERT_TRUE(restored.LoadState(state).ok());
    Result<Dtd> a = original.InferDtd();
    Result<Dtd> b = restored.InferDtd();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(WriteDtd(a.value(), *original.alphabet()),
              WriteDtd(b.value(), *restored.alphabet()));
    // XSD output (numeric predicates + datatypes from the text masks)
    // also survives.
    EXPECT_EQ(original.InferXsd().value(), restored.InferXsd().value());
    // And the state re-serializes identically (canonical form): the
    // loader keeps the saver's symbol numbering, and Save lists SOA
    // states in symbol-id order.
    EXPECT_EQ(restored.SaveState(), state);
  }
}

TEST(StatePersistence, LoadMergesShards) {
  // Two inferrers fed disjoint halves must merge into the same state as
  // one fed everything (map-reduce style sharding).
  std::vector<std::string> docs = {
      "<db><rec><k/><v/></rec></db>",
      "<db><rec><k/></rec><rec><k/><v/><v/></rec></db>",
      "<db><rec><k/><note>t</note></rec></db>",
      "<db/>",
  };
  DtdInferrer shard1;
  DtdInferrer shard2;
  DtdInferrer full;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_TRUE((i % 2 == 0 ? shard1 : shard2).AddXml(docs[i]).ok());
    ASSERT_TRUE(full.AddXml(docs[i]).ok());
  }
  DtdInferrer merged;
  ASSERT_TRUE(merged.LoadState(shard1.SaveState()).ok());
  ASSERT_TRUE(merged.LoadState(shard2.SaveState()).ok());
  EXPECT_EQ(WriteDtd(merged.InferDtd().value(), *merged.alphabet()),
            WriteDtd(full.InferDtd().value(), *full.alphabet()));
}

TEST(StatePersistence, ContinuesIncrementallyAfterRestore) {
  DtdInferrer first;
  ASSERT_TRUE(first.AddXml("<r><a/></r>").ok());
  DtdInferrer second;
  ASSERT_TRUE(second.LoadState(first.SaveState()).ok());
  ASSERT_TRUE(second.AddXml("<r><a/><a/><b/></r>").ok());

  DtdInferrer reference;
  ASSERT_TRUE(reference.AddXml("<r><a/></r>").ok());
  ASSERT_TRUE(reference.AddXml("<r><a/><a/><b/></r>").ok());
  EXPECT_EQ(WriteDtd(second.InferDtd().value(), *second.alphabet()),
            WriteDtd(reference.InferDtd().value(), *reference.alphabet()));
}

TEST(StatePersistence, RejectsCorruptedInput) {
  DtdInferrer inferrer;
  EXPECT_FALSE(inferrer.LoadState("").ok());
  EXPECT_FALSE(inferrer.LoadState("bogus header\nend\n").ok());
  EXPECT_FALSE(inferrer.LoadState("condtd-state 1\n").ok());  // no end
  EXPECT_FALSE(
      inferrer.LoadState("condtd-state 1\nattr x 3\nend\n").ok());
  EXPECT_FALSE(
      inferrer.LoadState("condtd-state 1\nelement e 1\nend\n").ok());
  EXPECT_FALSE(
      inferrer
          .LoadState("condtd-state 1\nelement e 1 0\nwhat 1\nend\n")
          .ok());
}

TEST(StatePersistence, DatatypeMasksRoundTrip) {
  DtdInferrer first;
  ASSERT_TRUE(first
                  .AddXml("<r><t>hello world 100% \n ok</t><n> 42 </n>"
                          "<d>2024-02-29</d><e/></r>")
                  .ok());
  ASSERT_TRUE(first.AddXml("<r><n>-7</n><d>1999-12-31</d></r>").ok());
  const std::string saved = first.SaveState();
  // Version 3 keeps one mask per element with text, and no text.
  EXPECT_EQ(saved.rfind("condtd-state 3\n", 0), 0u) << saved;
  EXPECT_NE(saved.find("element t 1 1\ntext.types 0\n"), std::string::npos)
      << saved;
  EXPECT_NE(saved.find("element n 2 1\ntext.types 6\n"), std::string::npos)
      << saved;
  EXPECT_NE(saved.find("element d 2 1\ntext.types 8\n"), std::string::npos)
      << saved;
  EXPECT_EQ(saved.find("element e 1 0\ntext.types"), std::string::npos)
      << saved;
  EXPECT_EQ(saved.find("\ntext "), std::string::npos) << saved;
  DtdInferrer second;
  ASSERT_TRUE(second.LoadState(saved).ok());
  EXPECT_EQ(second.SaveState(), saved);
  const std::string xsd = first.InferXsd().value();
  EXPECT_EQ(second.InferXsd().value(), xsd);
  EXPECT_NE(xsd.find("<xs:element name=\"t\" type=\"xs:string\"/>"),
            std::string::npos)
      << xsd;
  EXPECT_NE(xsd.find("<xs:element name=\"n\" type=\"xs:integer\"/>"),
            std::string::npos)
      << xsd;
  EXPECT_NE(xsd.find("<xs:element name=\"d\" type=\"xs:date\"/>"),
            std::string::npos)
      << xsd;
}

TEST(StatePersistence, RejectsTextTypesOutsideTheMask) {
  DtdInferrer inferrer;
  Status status = inferrer.LoadState(
      "condtd-state 3\nelement e 1 1\ntext.types 16\nend\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.ToString().find("text.types 16"), std::string::npos)
      << status.ToString();
  for (const char* bad : {
           "condtd-state 3\nelement e 1 1\ntext.types -1\nend\n",
           "condtd-state 3\nelement e 1 1\ntext.types x\nend\n",
           "condtd-state 3\nelement e 1 1\ntext.types\nend\n",
           "condtd-state 3\nelement e 1 0\ntext.types 6\nend\n",
           // Each version carries only its own form of the datatypes.
           "condtd-state 3\nelement e 1 1\ntext 42\nend\n",
           "condtd-state 2\nelement e 1 1\ntext.types 6\nend\n",
       }) {
    DtdInferrer fresh;
    EXPECT_FALSE(fresh.LoadState(bad).ok()) << bad;
  }
  DtdInferrer in_range;
  ASSERT_TRUE(in_range
                  .LoadState("condtd-state 3\nelement e 1 1\n"
                             "text.types 15\nend\n")
                  .ok());
}

// A state file saved by the format-2 engine, verbatim: it carries up to
// 64 text samples per element instead of a datatype mask. It was
// produced from:
//   <shop><item sku="1"><name>alpha</name><qty>9</qty><price>1.5</price>
//     <flag>true</flag><day>2024-02-29</day></item></shop>
//   <shop><item sku="2"><name>b c</name><qty> 12 </qty><price>2</price>
//     <flag>0</flag><day>1999-12-31</day><note>hi there 100%</note>
//     </item><item><name>d</name><qty>-3</qty></item></shop>
constexpr char kVersion2State[] =
    "condtd-state 2\n"
    "root shop 2\n"
    "child item\n"
    "child name\n"
    "child qty\n"
    "child price\n"
    "child flag\n"
    "child day\n"
    "child note\n"
    "element shop 2 0\n"
    "soa.state item 3\n"
    "soa.init item 2\n"
    "soa.final item 2\n"
    "soa.edge item item 1\n"
    "crx.edge item item\n"
    "crx.hist 1 item=1\n"
    "crx.hist 1 item=2\n"
    "words.incomplete\n"
    "element item 3 0\n"
    "attr sku 2\n"
    "soa.state name 3\n"
    "soa.init name 3\n"
    "soa.edge name qty 3\n"
    "soa.state qty 3\n"
    "soa.final qty 1\n"
    "soa.edge qty price 2\n"
    "soa.state price 2\n"
    "soa.edge price flag 2\n"
    "soa.state flag 2\n"
    "soa.edge flag day 2\n"
    "soa.state day 2\n"
    "soa.final day 1\n"
    "soa.edge day note 1\n"
    "soa.state note 1\n"
    "soa.final note 1\n"
    "crx.edge name qty\n"
    "crx.edge qty price\n"
    "crx.edge price flag\n"
    "crx.edge flag day\n"
    "crx.edge day note\n"
    "crx.hist 1 name=1 qty=1\n"
    "crx.hist 1 name=1 qty=1 price=1 flag=1 day=1\n"
    "crx.hist 1 name=1 qty=1 price=1 flag=1 day=1 note=1\n"
    "words.incomplete\n"
    "element name 3 1\n"
    "text alpha\n"
    "text b%20c\n"
    "text d\n"
    "soa.empty 3\n"
    "crx.empty 3\n"
    "words.incomplete\n"
    "element qty 3 1\n"
    "text 9\n"
    "text 12\n"
    "text -3\n"
    "soa.empty 3\n"
    "crx.empty 3\n"
    "words.incomplete\n"
    "element price 2 1\n"
    "text 1.5\n"
    "text 2\n"
    "soa.empty 2\n"
    "crx.empty 2\n"
    "words.incomplete\n"
    "element flag 2 1\n"
    "text true\n"
    "text 0\n"
    "soa.empty 2\n"
    "crx.empty 2\n"
    "words.incomplete\n"
    "element day 2 1\n"
    "text 2024-02-29\n"
    "text 1999-12-31\n"
    "soa.empty 2\n"
    "crx.empty 2\n"
    "words.incomplete\n"
    "element note 1 1\n"
    "text hi%20there%20100%25\n"
    "soa.empty 1\n"
    "crx.empty 1\n"
    "words.incomplete\n"
    "end\n";

TEST(StatePersistence, Version2TextSamplesGiveTheFormat2Xsd) {
  // `condtd infer --state-in --xsd` of the format-2 engine on
  // kVersion2State printed exactly this.
  constexpr char kFormat2Xsd[] =
      "<?xml version=\"1.0\"?>\n"
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n"
      "  <xs:element name=\"shop\">\n"
      "    <xs:complexType>\n"
      "      <xs:sequence>\n"
      "        <xs:element ref=\"item\" maxOccurs=\"unbounded\"/>\n"
      "      </xs:sequence>\n"
      "    </xs:complexType>\n"
      "  </xs:element>\n"
      "  <xs:element name=\"item\">\n"
      "    <xs:complexType>\n"
      "      <xs:sequence>\n"
      "        <xs:element ref=\"name\"/>\n"
      "        <xs:element ref=\"qty\"/>\n"
      "        <xs:element ref=\"price\" minOccurs=\"0\"/>\n"
      "        <xs:element ref=\"flag\" minOccurs=\"0\"/>\n"
      "        <xs:element ref=\"day\" minOccurs=\"0\"/>\n"
      "        <xs:element ref=\"note\" minOccurs=\"0\"/>\n"
      "      </xs:sequence>\n"
      "      <xs:attribute name=\"sku\" type=\"xs:string\"/>\n"
      "    </xs:complexType>\n"
      "  </xs:element>\n"
      "  <xs:element name=\"name\" type=\"xs:string\"/>\n"
      "  <xs:element name=\"qty\" type=\"xs:integer\"/>\n"
      "  <xs:element name=\"price\" type=\"xs:decimal\"/>\n"
      "  <xs:element name=\"flag\" type=\"xs:boolean\"/>\n"
      "  <xs:element name=\"day\" type=\"xs:date\"/>\n"
      "  <xs:element name=\"note\" type=\"xs:string\"/>\n"
      "</xs:schema>\n";
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer.LoadState(kVersion2State).ok());
  Result<std::string> xsd = inferrer.InferXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_EQ(*xsd, kFormat2Xsd);
  // Re-saved, the samples are masks.
  const std::string saved = inferrer.SaveState();
  EXPECT_EQ(saved.rfind("condtd-state 3\n", 0), 0u) << saved;
  EXPECT_NE(saved.find("element qty 3 1\ntext.types 6\n"), std::string::npos)
      << saved;
  EXPECT_EQ(saved.find("\ntext "), std::string::npos) << saved;
}

TEST(StatePersistence, Version2SamplesAreUnescapedBeforeClassifying) {
  // Escaped whitespace around a number strips away; a section that says
  // it has text but carries no sample is a string, as an empty sample
  // list always was.
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer
                  .LoadState("condtd-state 2\n"
                             "element r 1 0\n"
                             "soa.state n 1\nsoa.init n 1\n"
                             "soa.edge n b 1\n"
                             "soa.state b 1\nsoa.final b 1\n"
                             "crx.edge n b\n"
                             "crx.hist 1 n=1 b=1\n"
                             "element n 1 1\n"
                             "text %2042%0A\n"
                             "soa.empty 1\ncrx.empty 1\n"
                             "element b 1 1\n"
                             "soa.empty 1\ncrx.empty 1\n"
                             "end\n")
                  .ok());
  const std::string xsd = inferrer.InferXsd().value();
  EXPECT_NE(xsd.find("<xs:element name=\"n\" type=\"xs:integer\"/>"),
            std::string::npos)
      << xsd;
  EXPECT_NE(xsd.find("<xs:element name=\"b\" type=\"xs:string\"/>"),
            std::string::npos)
      << xsd;
  EXPECT_NE(inferrer.SaveState().find("element b 1 1\ntext.types 0\n"),
            std::string::npos);
}

// --- format versioning ----------------------------------------------------

// A state file saved by the pre-reservoir engine (format version 1),
// verbatim. It was produced from:
//   <db><rec id="1"><k>alpha</k><v>9</v></rec><rec id="2"><k>b</k></rec></db>
//   <db><rec id="3"><k>c</k><note>hi there 100%</note></rec></db>
constexpr char kVersion1State[] =
    "condtd-state 1\n"
    "root db 2\n"
    "child rec\n"
    "child k\n"
    "child v\n"
    "child note\n"
    "element db 2 0\n"
    "soa.state rec 3\n"
    "soa.init rec 2\n"
    "soa.final rec 2\n"
    "soa.edge rec rec 1\n"
    "crx.edge rec rec\n"
    "crx.hist 1 rec=1\n"
    "crx.hist 1 rec=2\n"
    "element rec 3 0\n"
    "attr id 3\n"
    "soa.state k 3\n"
    "soa.init k 3\n"
    "soa.final k 1\n"
    "soa.edge k v 1\n"
    "soa.edge k note 1\n"
    "soa.state v 1\n"
    "soa.final v 1\n"
    "soa.state note 1\n"
    "soa.final note 1\n"
    "crx.edge k v\n"
    "crx.edge k note\n"
    "crx.hist 1 k=1\n"
    "crx.hist 1 k=1 v=1\n"
    "crx.hist 1 k=1 note=1\n"
    "element k 3 1\n"
    "text alpha\n"
    "text b\n"
    "text c\n"
    "soa.empty 3\n"
    "crx.empty 3\n"
    "element v 1 1\n"
    "text 9\n"
    "soa.empty 1\n"
    "crx.empty 1\n"
    "element note 1 1\n"
    "text hi%20there%20100%25\n"
    "soa.empty 1\n"
    "crx.empty 1\n"
    "end\n";

TEST(StatePersistence, LoadsVersion1StateFiles) {
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer.LoadState(kVersion1State).ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_EQ(WriteDtd(dtd.value(), *inferrer.alphabet()),
            "<!ELEMENT db (rec)+>\n"
            "<!ELEMENT rec (k, (v | note)?)>\n"
            "<!ATTLIST rec\n"
            "  id CDATA #REQUIRED>\n"
            "<!ELEMENT k (#PCDATA)>\n"
            "<!ELEMENT v (#PCDATA)>\n"
            "<!ELEMENT note (#PCDATA)>\n");
}

TEST(StatePersistence, Version1SummariesAreMarkedWordsIncomplete) {
  // A v1 file cannot carry the distinct-word reservoir, so a word-hungry
  // learner (xtract) must refuse the restored summaries rather than
  // learn from an empty sample.
  InferenceOptions options;
  options.learner = "xtract";
  DtdInferrer inferrer(options);
  ASSERT_TRUE(inferrer.LoadState(kVersion1State).ok());
  const ElementSummary* summary =
      inferrer.summaries().Find(inferrer.alphabet()->Find("db"));
  ASSERT_NE(summary, nullptr);
  EXPECT_FALSE(summary->words_complete);
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_FALSE(dtd.ok());
  EXPECT_EQ(dtd.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StatePersistence, RejectsUnsupportedFutureVersion) {
  DtdInferrer inferrer;
  Status status = inferrer.LoadState("condtd-state 4\nend\n");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find(
                "state file format version 4 is not supported"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("supported: 1, 2, 3"), std::string::npos)
      << status.ToString();
}

TEST(StatePersistence, ReservoirStateRoundTripsCanonically) {
  InferenceOptions options;
  options.learner = "xtract";
  DtdInferrer first(options);
  ASSERT_TRUE(first.AddXml("<r><x/><y/><x/></r>").ok());
  ASSERT_TRUE(first.AddXml("<r><x/></r>").ok());
  std::string saved = first.SaveState();
  // The current format is version 3 and carries the reservoir.
  EXPECT_EQ(saved.rfind("condtd-state 3\n", 0), 0u) << saved;
  EXPECT_NE(saved.find("\nword "), std::string::npos) << saved;
  DtdInferrer second(options);
  ASSERT_TRUE(second.LoadState(saved).ok());
  EXPECT_EQ(second.SaveState(), saved);
  // And the restored reservoir still feeds the learner.
  Result<Dtd> a = first.InferDtd();
  Result<Dtd> b = second.InferDtd();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(WriteDtd(a.value(), *first.alphabet()),
            WriteDtd(b.value(), *second.alphabet()));
}

TEST(StatePersistence, TruncatedVersion2StateRejected) {
  DtdInferrer inferrer{InferenceOptions{}};
  Status status = inferrer.LoadState("condtd-state 2\nelement e 2 0\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("truncated"), std::string::npos)
      << status.ToString();
}

TEST(StatePersistence, RejectsNonNumericAndOverflowingCounts) {
  // Every count field goes through the strict parser; std::atoll/atoi
  // previously had undefined behavior on out-of-range input.
  const char* bad[] = {
      "condtd-state 2\nelement e 12x 0\nend\n",
      "condtd-state 2\nelement e -4 0\nend\n",
      "condtd-state 2\nroot r 99999999999999999999\nend\n",
      "condtd-state 2\nelement e 1 0\nsoa.state a 3000000000\nend\n",
      "condtd-state 2\nelement e 1 0\ncrx.hist 4 a=99999999999\nend\n",
  };
  for (const char* state : bad) {
    DtdInferrer inferrer{InferenceOptions{}};
    EXPECT_FALSE(inferrer.LoadState(state).ok()) << state;
  }
}

TEST(StatePersistence, RejectsCountsWhoseSumsOverflow) {
  // Each line is in range on its own; the sum on the named line is not.
  const std::string max32 = "2147483647";
  const std::string max64 = "9223372036854775807";
  const std::string head = "condtd-state 2\nelement e 1 0\n";
  struct Case {
    const char* kind;
    std::string state;
    int line;
  };
  const Case cases[] = {
      {"root", "condtd-state 2\nroot e " + max64 + "\nroot e 1\nend\n", 3},
      {"element",
       "condtd-state 2\nelement e " + max64 + " 0\nelement e 1 0\nend\n", 3},
      {"attr", head + "attr id " + max64 + "\nattr id 1\nend\n", 4},
      {"soa.state", head + "soa.state x " + max32 + "\nsoa.state x 1\nend\n",
       4},
      {"soa.init", head + "soa.init x " + max32 + "\nsoa.init x 1\nend\n", 4},
      {"soa.final", head + "soa.final x " + max32 + "\nsoa.final x 1\nend\n",
       4},
      {"soa.edge",
       head + "soa.edge x x " + max32 + "\nsoa.edge x x " + max32 +
           "\ncrx.edge x x\nend\n",
       4},
      {"soa.empty", head + "soa.empty " + max32 + "\nsoa.empty 1\nend\n", 4},
      {"crx.empty", head + "crx.empty " + max64 + "\ncrx.empty 1\nend\n", 4},
      {"crx.hist",
       head + "crx.hist " + max64 + " x=1\ncrx.hist " + max64 + " x=1\nend\n",
       4},
      // Different histograms: only the section's word total overflows.
      {"crx.hist total",
       head + "crx.hist " + max64 + " x=1\ncrx.hist 1 y=1\nend\n", 4},
      // One histogram whose words are longer than int32.
      {"crx.hist length", head + "crx.hist 1 x=" + max32 + " y=1\nend\n",
       3},
  };
  for (const Case& c : cases) {
    SummaryStore store;
    Alphabet alphabet;
    Status status = store.Load(c.state, &alphabet);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << c.kind;
    EXPECT_NE(status.ToString().find("state line " + std::to_string(c.line) +
                                     ": count "),
              std::string::npos)
        << c.kind << ": " << status.ToString();
    EXPECT_NE(status.ToString().find("overflows"), std::string::npos)
        << c.kind << ": " << status.ToString();
  }
}

TEST(StatePersistence, RejectsSumsWithTheCountsAlreadyInTheStore) {
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml("<e><x/></e>").ok());
  // One more e word on top of the one folded.
  Status status = inferrer.LoadState(
      "condtd-state 2\nelement e 1 0\ncrx.hist 9223372036854775807 x=1\n"
      "end\n");
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.ToString().find("state line 3: count"), std::string::npos)
      << status.ToString();

  SummaryStore store;
  Alphabet alphabet;
  ASSERT_TRUE(
      store.Load("condtd-state 2\nelement e 1 0\nsoa.init x 2147483647\nend\n",
                 &alphabet)
          .ok());
  status = store.Load("condtd-state 2\nelement e 1 0\nsoa.init x 1\nend\n",
                      &alphabet);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.ToString().find("state line 3: count"), std::string::npos)
      << status.ToString();
}

TEST(StatePersistence, IdtdLearnsMergedEdgesWhoseSupportsLeave32Bits) {
  // a and b share pred x and succ y, so the disjunction rule merges
  // them and sums x→a and x→b onto one edge: 2 * INT32_MAX.
  DtdInferrer inferrer{[] {
    InferenceOptions options;
    options.learner = "idtd";
    return options;
  }()};
  ASSERT_TRUE(inferrer
                  .LoadState("condtd-state 2\n"
                             "element e 2 0\n"
                             "soa.state x 2\n"
                             "soa.state a 1\n"
                             "soa.state b 1\n"
                             "soa.state y 2\n"
                             "soa.init x 2\n"
                             "soa.final y 2\n"
                             "soa.edge x a 2147483647\n"
                             "soa.edge x b 2147483647\n"
                             "soa.edge a y 1\n"
                             "soa.edge b y 1\n"
                             "crx.edge x a\n"
                             "crx.edge x b\n"
                             "crx.edge a y\n"
                             "crx.edge b y\n"
                             "crx.hist 1 a=1 x=1 y=1\n"
                             "crx.hist 1 b=1 x=1 y=1\n"
                             "end\n")
                  .ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_NE(WriteDtd(dtd.value(), *inferrer.alphabet())
                .find("<!ELEMENT e (x, (a | b), y)>"),
            std::string::npos)
      << WriteDtd(dtd.value(), *inferrer.alphabet());
}

TEST(StatePersistence, CrxNoiseSupportSaturatesAtTheThreshold) {
  // a's support is 2 * INT64_MAX occurrences, which int64 cannot hold;
  // it only has to reach the threshold. b's single occurrence is noise.
  DtdInferrer inferrer{[] {
    InferenceOptions options;
    options.learner = "crx";
    options.noise_symbol_threshold = 2;
    return options;
  }()};
  ASSERT_TRUE(inferrer
                  .LoadState("condtd-state 2\n"
                             "element e 3 0\n"
                             "soa.state a 2\n"
                             "soa.state b 1\n"
                             "soa.init a 2\n"
                             "soa.init b 1\n"
                             "soa.final a 2\n"
                             "soa.final b 1\n"
                             "soa.edge a a 2\n"
                             "crx.edge a a\n"
                             "crx.hist 9223372036854775806 a=2\n"
                             "crx.hist 1 b=1\n"
                             "end\n")
                  .ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_NE(WriteDtd(dtd.value(), *inferrer.alphabet())
                .find("<!ELEMENT e (a)*>"),
            std::string::npos)
      << WriteDtd(dtd.value(), *inferrer.alphabet());
}

TEST(StatePersistence, DuplicateElementSectionsMerge) {
  SummaryStore store;
  Alphabet alphabet;
  ASSERT_TRUE(store
                  .Load("condtd-state 2\n"
                        "element e 3 0\n"
                        "element e 4 1\n"
                        "end\n",
                        &alphabet)
                  .ok());
  const ElementSummary* summary = store.Find(alphabet.Intern("e"));
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->occurrences, 7);
  EXPECT_TRUE(summary->has_text);
}

// →_W is kept once, in the SOA; a section's crx.edge lines repeat its
// soa.edge relation and must state exactly that relation.
constexpr char kOneEdgeSection[] =
    "condtd-state 2\n"
    "element e 2 0\n"
    "soa.state a 2\n"
    "soa.state b 1\n"
    "soa.init a 2\n"
    "soa.final a 1\n"
    "soa.final b 1\n"
    "soa.edge a b 1\n";  // line 8

TEST(StatePersistence, RejectsCrxEdgeLinesThatDifferFromSoaEdges) {
  {
    SummaryStore store;
    Alphabet alphabet;
    Status status = store.Load(std::string(kOneEdgeSection) +
                                   "crx.hist 1 a=1\n"
                                   "crx.hist 1 a=1 b=1\n"
                                   "end\n",
                               &alphabet);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.ToString().find(
                  "state line 8: soa.edge a b has no matching crx.edge line"),
              std::string::npos)
        << status.ToString();
  }
  {
    // The check runs when the section closes, here at the next element.
    SummaryStore store;
    Alphabet alphabet;
    Status status = store.Load(std::string(kOneEdgeSection) +
                                   "crx.edge a b\n"
                                   "crx.edge b a\n"  // line 10
                                   "crx.hist 1 a=1\n"
                                   "crx.hist 1 a=1 b=1\n"
                                   "element b 1 0\n"
                                   "end\n",
                               &alphabet);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kParseError);
    EXPECT_NE(status.ToString().find(
                  "state line 10: crx.edge b a has no matching soa.edge line"),
              std::string::npos)
        << status.ToString();
  }
  SummaryStore store;
  Alphabet alphabet;
  EXPECT_TRUE(store
                  .Load(std::string(kOneEdgeSection) +
                            "crx.edge a b\n"
                            "crx.hist 1 a=1\n"
                            "crx.hist 1 a=1 b=1\n"
                            "end\n",
                        &alphabet)
                  .ok());
}

TEST(StatePersistence, LoadIntoAnElementWithOtherEdgesEqualsMergeFrom) {
  // Load compares a section's own lines, not the merged SOA: the
  // receiving store already has edges b→a and a→c for r that the file
  // does not mention.
  DtdInferrer saver;
  ASSERT_TRUE(saver.AddXml("<r><a/><b/></r>").ok());
  ASSERT_TRUE(saver.AddXml("<r><b/><b/></r>").ok());
  DtdInferrer loaded;
  DtdInferrer merged;
  for (DtdInferrer* inferrer : {&loaded, &merged}) {
    ASSERT_TRUE(inferrer->AddXml("<r><b/><a/><c/></r>").ok());
  }
  ASSERT_TRUE(loaded.LoadState(saver.SaveState()).ok());
  merged.MergeFrom(saver);
  EXPECT_EQ(loaded.SaveState(), merged.SaveState());
  EXPECT_EQ(WriteDtd(loaded.InferDtd().value(), *loaded.alphabet()),
            WriteDtd(merged.InferDtd().value(), *merged.alphabet()));
}

TEST(StatePersistence, ReservoirBeyondDeclaredBoundClampsAndOverflows) {
  SummaryLimits limits;
  limits.max_retained_words = 2;
  SummaryStore store(limits);
  Alphabet alphabet;
  ASSERT_TRUE(store
                  .Load("condtd-state 2\n"
                        "element e 4 0\n"
                        "word a\n"
                        "word b\n"
                        "word c\n"
                        "word d\n"
                        "end\n",
                        &alphabet)
                  .ok());
  const ElementSummary* summary = store.Find(alphabet.Intern("e"));
  ASSERT_NE(summary, nullptr);
  EXPECT_LE(static_cast<int>(summary->retained_words.size()),
            limits.max_retained_words);
  EXPECT_TRUE(summary->words_overflowed);
  EXPECT_NE(store.Save(alphabet).find("words.overflowed"),
            std::string::npos);
}

}  // namespace
}  // namespace condtd
