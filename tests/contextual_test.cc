#include "infer/contextual.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "dtd/diff.h"
#include "dtd/dtd_writer.h"
#include "dtd/validator.h"
#include "gen/random_dtd.h"
#include "gen/xml_gen.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "regex/properties.h"
#include "xml/parser.h"

namespace condtd {
namespace {

constexpr char kShopXml[] = R"(
<shop>
  <person><name><first>A</first><last>B</last></name></person>
  <person><name><first>C</first><last>D</last></name></person>
  <company><name><legal>E Corp</legal></name></company>
  <company><name><legal>F Ltd</legal></name></company>
</shop>)";

TEST(Contextual, DetectsParentDependentTypes) {
  // "name" has different content under person (first, last) and under
  // company (legal) — the XSD-style vertical context a DTD cannot
  // express.
  ContextualInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml(kShopXml).ok());
  Result<ContextualInferrer::Report> report = inferrer.Infer();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->NumContextDependent(), 1);

  const Alphabet& alphabet = *inferrer.alphabet();
  Symbol name = alphabet.Find("name");
  const ContextualInferrer::Report::ElementTypes* entry = nullptr;
  for (const auto& e : report->elements) {
    if (e.element == name) entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->types.size(), 2u);
  // The DTD approximation pools both shapes.
  ASSERT_EQ(entry->merged.kind, ContentKind::kChildren);
  Symbol first = alphabet.Find("first");
  Symbol legal = alphabet.Find("legal");
  EXPECT_TRUE(Matches(entry->merged.regex,
                      {first, alphabet.Find("last")}));
  EXPECT_TRUE(Matches(entry->merged.regex, {legal}));
}

TEST(Contextual, MergesEquivalentContexts) {
  // "id" looks the same under both parents → one uniform type.
  ContextualInferrer inferrer;
  ASSERT_TRUE(inferrer
                  .AddXml("<r><x><id/></x><y><id/></y>"
                          "<x><id/></x></r>")
                  .ok());
  Result<ContextualInferrer::Report> report = inferrer.Infer();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->NumContextDependent(), 0);
  for (const auto& entry : report->elements) {
    EXPECT_EQ(entry.types.size(), 1u);
  }
  std::string text = inferrer.ReportToString(report.value());
  EXPECT_NE(text.find("uniform; DTD-expressible"), std::string::npos);
}

TEST(Contextual, LocalTypesXsd) {
  ContextualInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml(kShopXml).ok());
  Result<std::string> xsd = inferrer.InferLocalXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  // Uniform children stay refs; the context-dependent <name> is declared
  // inline (local) under both parents.
  EXPECT_NE(xsd->find("<xs:element name=\"person\">"), std::string::npos)
      << *xsd;
  size_t first_local = xsd->find("<xs:element name=\"name\"");
  ASSERT_NE(first_local, std::string::npos) << *xsd;
  size_t second_local =
      xsd->find("<xs:element name=\"name\"", first_local + 1);
  EXPECT_NE(second_local, std::string::npos)
      << "expected a second local declaration of <name>\n"
      << *xsd;
  // The two local declarations carry different types.
  EXPECT_NE(xsd->find("\"first\""), std::string::npos);
  EXPECT_NE(xsd->find("\"legal\""), std::string::npos);
  // Output is well-formed XML.
  EXPECT_TRUE(ParseXml(*xsd).ok());
}

TEST(Contextual, LocalXsdHandlesRecursiveContexts) {
  // section under section vs under doc: the inline chain must terminate
  // via the global-ref fallback.
  ContextualInferrer inferrer;
  ASSERT_TRUE(inferrer
                  .AddXml("<doc><section><title>a</title>"
                          "<section><para>b</para></section>"
                          "</section></doc>")
                  .ok());
  Result<std::string> xsd = inferrer.InferLocalXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_TRUE(ParseXml(*xsd).ok()) << *xsd;
}

TEST(Contextual, LocalXsdDeclaresAttributes) {
  // In WriteXsd's shapes: a #PCDATA element with attributes becomes a
  // mixed complexType, and an attribute is required iff it occurs on
  // every occurrence of the type.
  ContextualInferrer uniform;
  ASSERT_TRUE(
      uniform.AddXml(R"(<r a="1"><x b="2">t</x><x b="3">u</x></r>)").ok());
  Result<std::string> xsd = uniform.InferLocalXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_EQ(*xsd,
            "<?xml version=\"1.0\"?>\n"
            "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n"
            "  <xs:element name=\"r\">\n"
            "    <xs:complexType>\n"
            "      <xs:sequence>\n"
            "        <xs:element ref=\"x\" maxOccurs=\"unbounded\"/>\n"
            "      </xs:sequence>\n"
            "      <xs:attribute name=\"a\" type=\"xs:string\" "
            "use=\"required\"/>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "  <xs:element name=\"x\">\n"
            "    <xs:complexType mixed=\"true\">\n"
            "      <xs:attribute name=\"b\" type=\"xs:string\" "
            "use=\"required\"/>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "</xs:schema>\n");

  // k occurs on x only under p: required in p's local type, absent from
  // q's, and optional in the pooled global declaration.
  ContextualInferrer split;
  ASSERT_TRUE(split
                  .AddXml("<r><p><x k=\"1\"><y/></x></p>"
                          "<q><x><y/><y/></x></q></r>")
                  .ok());
  xsd = split.InferLocalXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_EQ(*xsd,
            "<?xml version=\"1.0\"?>\n"
            "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n"
            "  <xs:element name=\"r\">\n"
            "    <xs:complexType>\n"
            "      <xs:sequence>\n"
            "        <xs:element ref=\"p\"/>\n"
            "        <xs:element ref=\"q\"/>\n"
            "      </xs:sequence>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "  <xs:element name=\"p\">\n"
            "    <xs:complexType>\n"
            "      <xs:sequence>\n"
            "        <xs:element name=\"x\">\n"
            "          <xs:complexType>\n"
            "            <xs:sequence>\n"
            "              <xs:element ref=\"y\"/>\n"
            "            </xs:sequence>\n"
            "            <xs:attribute name=\"k\" type=\"xs:string\" "
            "use=\"required\"/>\n"
            "          </xs:complexType>\n"
            "        </xs:element>\n"
            "      </xs:sequence>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "  <xs:element name=\"x\">\n"
            "    <xs:complexType>\n"
            "      <xs:sequence>\n"
            "        <xs:element ref=\"y\" maxOccurs=\"unbounded\"/>\n"
            "      </xs:sequence>\n"
            "      <xs:attribute name=\"k\" type=\"xs:string\"/>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "  <xs:element name=\"y\">\n"
            "    <xs:complexType/>\n"
            "  </xs:element>\n"
            "  <xs:element name=\"q\">\n"
            "    <xs:complexType>\n"
            "      <xs:sequence>\n"
            "        <xs:element name=\"x\">\n"
            "          <xs:complexType>\n"
            "            <xs:sequence>\n"
            "              <xs:element ref=\"y\" maxOccurs=\"unbounded\"/>\n"
            "            </xs:sequence>\n"
            "          </xs:complexType>\n"
            "        </xs:element>\n"
            "      </xs:sequence>\n"
            "    </xs:complexType>\n"
            "  </xs:element>\n"
            "</xs:schema>\n");
}

TEST(Contextual, ReportRendering) {
  ContextualInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml(kShopXml).ok());
  Result<ContextualInferrer::Report> report = inferrer.Infer();
  ASSERT_TRUE(report.ok());
  std::string text = inferrer.ReportToString(report.value());
  EXPECT_NE(text.find("context-dependent"), std::string::npos);
  EXPECT_NE(text.find("under person"), std::string::npos);
  EXPECT_NE(text.find("under company"), std::string::npos);
  EXPECT_NE(text.find("DTD approximation"), std::string::npos);
}

TEST(Contextual, RejectedDocumentsContributeNothing) {
  // Strict errors and the nesting cap come from the one fold, which
  // drops the whole document.
  ContextualInferrer inferrer;
  EXPECT_FALSE(inferrer.AddXml("<r><x><id/></x><y>").ok());
  std::string deep;
  for (int i = 0; i < 10001; ++i) deep += "<a>";
  EXPECT_NE(inferrer.AddXml(deep).ToString().find(
                "element nesting deeper than 10000"),
            std::string::npos);
  EXPECT_TRUE(inferrer.contexts().empty());
  EXPECT_TRUE(inferrer.pooled().summaries().empty());
  ASSERT_TRUE(inferrer.AddXml("<r><id/></r>").ok());
  EXPECT_EQ(inferrer.contexts().size(), 2u);
}

// --- Random-DTD end-to-end pipeline fuzz ------------------------------------

/// Removes one end tag, picked at random; false when `text` has none.
bool RemoveRandomEndTag(std::string* text, Rng* rng) {
  std::vector<size_t> closes;
  for (size_t close = text->find("</"); close != std::string::npos;
       close = text->find("</", close + 1)) {
    closes.push_back(close);
  }
  if (closes.empty()) return false;
  size_t victim = closes[rng->NextBelow(closes.size())];
  text->erase(victim, text->find('>', victim) - victim + 1);
  return true;
}

TEST(RandomDtdPipeline, GenerateInferValidateRoundTrip) {
  Rng rng(20060912);
  for (int trial = 0; trial < 12; ++trial) {
    Alphabet alphabet;
    RandomDtdOptions options;
    options.num_elements = 4 + static_cast<int>(rng.NextBelow(8));
    Dtd truth = RandomDtd(&alphabet, &rng, options);

    // Every generated document is valid against its generator...
    std::vector<std::string> corpus;
    for (int i = 0; i < 80; ++i) {
      Result<XmlDocument> doc = GenerateDocument(truth, alphabet, &rng);
      ASSERT_TRUE(doc.ok());
      ValidationReport report = Validate(doc.value(), truth, &alphabet);
      ASSERT_TRUE(report.valid())
          << report.issues[0].element << ": " << report.issues[0].message
          << "\nDTD:\n"
          << WriteDtd(truth, alphabet);
      corpus.push_back(doc->ToXml());
    }
    // ...and valid against the re-inferred DTD.
    DtdInferrer inferrer;
    for (const std::string& text : corpus) {
      ASSERT_TRUE(inferrer.AddXml(text).ok());
    }
    Result<Dtd> inferred = inferrer.InferDtd();
    ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
    Alphabet inferred_alphabet = *inferrer.alphabet();
    for (const std::string& text : corpus) {
      Result<XmlDocument> doc = ParseXml(text);
      ASSERT_TRUE(doc.ok());
      ValidationReport report =
          Validate(doc.value(), inferred.value(), &inferred_alphabet);
      EXPECT_TRUE(report.valid())
          << report.issues[0].element << ": "
          << report.issues[0].message << "\ninferred:\n"
          << WriteDtd(inferred.value(), inferred_alphabet);
    }
    // The contextual inferrer agrees that a DTD-generated corpus never
    // needs vertical context... except where distinct elements happen to
    // produce colliding names, which RandomDtd never does.
    ContextualInferrer contextual;
    for (const std::string& text : corpus) {
      ASSERT_TRUE(contextual.AddXml(text).ok());
    }
    Result<ContextualInferrer::Report> report = contextual.Infer();
    ASSERT_TRUE(report.ok());
    // Sparse contexts may under-generalize relative to each other, so a
    // hard equality is wrong; but no element may need more types than it
    // has distinct parents.
    for (const auto& entry : report->elements) {
      EXPECT_GE(entry.types.size(), 1u);
    }
  }
}

TEST(RandomDtdPipeline, PooledContextEqualsFlatInference) {
  // The contextual inferrer's "DTD approximation" must be the plain
  // DtdInferrer's DTD byte for byte — they pool the same fold.
  std::vector<std::pair<InferenceOptions, std::vector<std::string>>> cases;
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    Alphabet alphabet;
    Dtd truth = RandomDtd(&alphabet, &rng);
    std::vector<std::string> corpus;
    for (int i = 0; i < 40; ++i) {
      Result<XmlDocument> doc = GenerateDocument(truth, alphabet, &rng);
      corpus.push_back(doc->ToXml());
    }
    cases.push_back({InferenceOptions(), std::move(corpus)});
  }
  // Section 9 noise pruning also applies to mixed content: <i> occurs
  // once, below the threshold, so neither model lists it.
  InferenceOptions noise;
  noise.noise_symbol_threshold = 2;
  cases.push_back({noise,
                   {"<r><p>a<b/>c</p></r>", "<r><p>a<b/>c</p></r>",
                    "<r><p>a<b/><i/>c</p></r>"}});
  for (const auto& [options, corpus] : cases) {
    DtdInferrer flat(options);
    ContextualInferrer contextual(options);
    for (const std::string& text : corpus) {
      ASSERT_TRUE(flat.AddXml(text).ok());
      ASSERT_TRUE(contextual.AddXml(text).ok());
    }
    Result<Dtd> flat_dtd = flat.InferDtd();
    ASSERT_TRUE(flat_dtd.ok()) << flat_dtd.status().ToString();
    Result<ContextualInferrer::Report> report = contextual.Infer();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    Dtd pooled;
    pooled.root = flat_dtd->root;
    for (const auto& entry : report->elements) {
      pooled.elements.emplace(entry.element, entry.merged);
    }
    EXPECT_EQ(WriteDtd(pooled, *contextual.alphabet()),
              WriteDtd(flat_dtd.value(), *flat.alphabet()));
  }
}

TEST(RandomDtdPipeline, MergedContextsLearnThePooledModel) {
  // The fold splits each element's words by parent. Merged back with
  // ElementSummary::MergeFrom they hold what the pooled summary holds,
  // so they learn the same language — strict, and lenient with an end
  // tag missing from each document.
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    Alphabet alphabet;
    Dtd truth = RandomDtd(&alphabet, &rng);
    for (bool lenient : {false, true}) {
      InferenceOptions options;
      options.lenient_xml = lenient;
      ContextualInferrer contextual(options);
      for (int i = 0; i < 40; ++i) {
        std::string text = GenerateDocument(truth, alphabet, &rng)->ToXml();
        if (lenient) RemoveRandomEndTag(&text, &rng);
        ASSERT_TRUE(contextual.AddXml(text).ok()) << text;
      }
      const DtdInferrer& pooled = contextual.pooled();
      std::map<Symbol, ElementSummary> merged;
      for (const auto& [key, summary] : contextual.contexts()) {
        merged[key.first].MergeFrom(summary, nullptr,
                                    pooled.summaries().limits());
      }
      ASSERT_EQ(merged.size(), pooled.summaries().elements().size());
      for (const auto& [element, summary] : merged) {
        SCOPED_TRACE(contextual.alphabet()->Name(element));
        EXPECT_EQ(summary.occurrences, pooled.WordCount(element));
        Result<ContentModel> from_contexts =
            pooled.InferElement(summary, /*xsd=*/false).model;
        Result<ContentModel> from_pool = pooled.InferContentModel(element);
        ASSERT_TRUE(from_contexts.ok() && from_pool.ok());
        ASSERT_EQ(from_contexts->kind, from_pool->kind);
        EXPECT_EQ(from_contexts->mixed_symbols, from_pool->mixed_symbols);
        if (from_pool->kind == ContentKind::kChildren) {
          EXPECT_TRUE(
              LanguageEquivalent(from_contexts->regex, from_pool->regex));
        }
      }
    }
  }
}

TEST(RandomDtdPipeline, LenientParserSurvivesMutilation) {
  // Randomly delete end tags from well-formed documents: the lenient
  // parser must still produce a tree, and strict parsing must reject.
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    Alphabet alphabet;
    Dtd truth = RandomDtd(&alphabet, &rng);
    Result<XmlDocument> doc = GenerateDocument(truth, alphabet, &rng);
    std::string text = doc->ToXml();
    if (!RemoveRandomEndTag(&text, &rng)) continue;

    EXPECT_FALSE(ParseXml(text).ok());
    std::vector<std::string> repairs;
    Result<XmlDocument> recovered = ParseXmlLenient(text, &repairs);
    ASSERT_TRUE(recovered.ok()) << text;
    EXPECT_GE(repairs.size(), 1u);
    EXPECT_NE(recovered->root, nullptr);
  }
}

TEST(RandomDtdPipeline, DiffOfDtdWithItselfIsIdentical) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    Alphabet alphabet;
    Dtd truth = RandomDtd(&alphabet, &rng);
    DtdDiff diff = CompareDtds(truth, truth);
    EXPECT_TRUE(diff.Identical());
  }
}

TEST(RandomDtd, StructureInvariants) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Alphabet alphabet;
    Dtd dtd = RandomDtd(&alphabet, &rng);
    EXPECT_EQ(dtd.root, alphabet.Find("e0"));
    EXPECT_FALSE(dtd.elements.empty());
    // Acyclic by construction: children only reference higher ids.
    for (const auto& [symbol, model] : dtd.elements) {
      if (model.kind != ContentKind::kChildren) continue;
      for (Symbol child : SymbolsOf(model.regex)) {
        EXPECT_GT(child, symbol);
      }
    }
  }
}

}  // namespace
}  // namespace condtd
