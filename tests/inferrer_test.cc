#include "infer/inferrer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "dtd/validator.h"
#include "gen/xml_gen.h"
#include "regex/equivalence.h"
#include "regex/matcher.h"
#include "xml/parser.h"
#include "xsd/numeric.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::ParseChars;

constexpr char kBooksXml[] = R"(
<library>
  <book id="1"><title>A</title><author>x</author><author>y</author></book>
  <book id="2"><title>B</title><author>z</author><year>2001</year></book>
  <book><title>C</title><author>w</author></book>
</library>)";

TEST(DtdInferrer, EndToEndFromXml) {
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml(kBooksXml).ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  const Alphabet& alphabet = *inferrer.alphabet();
  EXPECT_EQ(dtd->root, alphabet.Find("library"));

  const ContentModel& book = dtd->elements.at(alphabet.Find("book"));
  ASSERT_EQ(book.kind, ContentKind::kChildren);
  EXPECT_EQ(ToDtdString(book.regex, alphabet), "(title, author+, year?)");

  const ContentModel& title = dtd->elements.at(alphabet.Find("title"));
  EXPECT_EQ(title.kind, ContentKind::kPcdataOnly);

  // Attribute inference: id occurs on 2 of 3 books → #IMPLIED.
  const auto& attrs = dtd->attributes.at(alphabet.Find("book"));
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].name, "id");
  EXPECT_EQ(attrs[0].default_decl, "#IMPLIED");
}

TEST(DtdInferrer, InferredDtdValidatesItsOwnCorpus) {
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer.AddXml(kBooksXml).ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok());
  Result<XmlDocument> doc = ParseXml(kBooksXml);
  ASSERT_TRUE(doc.ok());
  Alphabet alphabet = *inferrer.alphabet();
  ValidationReport report = Validate(doc.value(), dtd.value(), &alphabet);
  EXPECT_TRUE(report.valid())
      << report.issues[0].element << ": " << report.issues[0].message;
}

TEST(DtdInferrer, EmptyAndMixedContent) {
  DtdInferrer inferrer;
  ASSERT_TRUE(inferrer
                  .AddXml("<r><e/><e/><p>text <b>bold</b> more</p></r>")
                  .ok());
  Result<Dtd> dtd = inferrer.InferDtd();
  ASSERT_TRUE(dtd.ok());
  const Alphabet& alphabet = *inferrer.alphabet();
  EXPECT_EQ(dtd->elements.at(alphabet.Find("e")).kind, ContentKind::kEmpty);
  const ContentModel& p = dtd->elements.at(alphabet.Find("p"));
  EXPECT_EQ(p.kind, ContentKind::kMixed);
  ASSERT_EQ(p.mixed_symbols.size(), 1u);
  EXPECT_EQ(p.mixed_symbols[0], alphabet.Find("b"));
}

TEST(DtdInferrer, IncrementalMatchesBatch) {
  // Section 9: adding documents one at a time must give the same DTD as
  // processing them at once.
  std::vector<std::string> docs = {
      "<db><rec><k/><v/></rec></db>",
      "<db><rec><k/></rec><rec><k/><v/><v/></rec></db>",
      "<db/>",
  };
  DtdInferrer incremental;
  for (const std::string& doc : docs) {
    ASSERT_TRUE(incremental.AddXml(doc).ok());
  }
  DtdInferrer batch;
  std::string all;
  // Feed the same documents in one go (separate AddXml calls are already
  // incremental; compare against a re-ordered feed as well).
  ASSERT_TRUE(batch.AddXml(docs[2]).ok());
  ASSERT_TRUE(batch.AddXml(docs[0]).ok());
  ASSERT_TRUE(batch.AddXml(docs[1]).ok());

  Result<Dtd> a = incremental.InferDtd();
  Result<Dtd> b = batch.InferDtd();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(WriteDtd(a.value(), *incremental.alphabet()),
            WriteDtd(b.value(), *batch.alphabet()));
}

TEST(DtdInferrer, AlgorithmSelection) {
  // Sparse data through CRX generalizes; iDTD specializes.
  std::vector<Word> words;
  Alphabet scratch;
  for (const char* s : {"ab", "ba"}) {
    words.push_back(scratch.WordFromChars(s));
  }
  InferenceOptions crx_options;
  crx_options.learner = "crx";
  DtdInferrer crx(crx_options);
  // Intern a and b first so ids line up with the scratch alphabet used
  // to build the words.
  Symbol a = crx.alphabet()->Intern("a");
  Symbol b = crx.alphabet()->Intern("b");
  Symbol e = crx.alphabet()->Intern("e");
  ASSERT_EQ(a, scratch.Find("a"));
  ASSERT_EQ(b, scratch.Find("b"));
  crx.AddWords(e, words);
  Result<ContentModel> crx_model = crx.InferContentModel(e);
  ASSERT_TRUE(crx_model.ok());
  EXPECT_EQ(ToDtdString(crx_model->regex, *crx.alphabet()), "(a | b)+");

  InferenceOptions idtd_options;
  idtd_options.learner = "idtd";
  DtdInferrer idtd(idtd_options);
  idtd.alphabet()->Intern("a");
  idtd.alphabet()->Intern("b");
  idtd.alphabet()->Intern("e");
  idtd.AddWords(e, words);
  Result<ContentModel> idtd_model = idtd.InferContentModel(e);
  ASSERT_TRUE(idtd_model.ok());
  // iDTD's SORE is more specific: (ab|ba)-ish superset, not (a|b)+.
  Alphabet names = *idtd.alphabet();
  EXPECT_TRUE(Matches(idtd_model->regex, scratch.WordFromChars("ab")));
  EXPECT_TRUE(Matches(idtd_model->regex, scratch.WordFromChars("ba")));
}

TEST(DtdInferrer, XsdOutputWithNumericPredicatesAndTypes) {
  DtdInferrer inferrer;
  // b occurs exactly twice in every record; c at least twice.
  ASSERT_TRUE(inferrer
                  .AddXml("<r>"
                          "<rec><b/><b/><c/><c/></rec>"
                          "<rec><b/><b/><c/><c/><c/></rec>"
                          "<num>42</num><num>7</num>"
                          "</r>")
                  .ok());
  Result<std::string> xsd = inferrer.InferXsd();
  ASSERT_TRUE(xsd.ok()) << xsd.status().ToString();
  EXPECT_NE(xsd->find("xs:schema"), std::string::npos);
  EXPECT_NE(xsd->find("minOccurs=\"2\""), std::string::npos) << *xsd;
  EXPECT_NE(xsd->find("type=\"xs:integer\""), std::string::npos) << *xsd;
}

TEST(DtdInferrer, RoundTripWithGeneratedCorpus) {
  // Full-circle integration: take a DTD, generate a corpus from it,
  // infer a DTD back, and validate the corpus against the inferred DTD.
  Alphabet alphabet;
  Result<Dtd> truth = ParseDtd(
      "<!ELEMENT db (entry+)>\n"
      "<!ELEMENT entry (name, seq?, (ref | note)*)>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!ELEMENT seq (#PCDATA)>\n"
      "<!ELEMENT ref EMPTY>\n"
      "<!ELEMENT note (#PCDATA)>\n",
      &alphabet);
  ASSERT_TRUE(truth.ok());
  Rng rng(11);
  std::vector<std::string> corpus;
  for (int i = 0; i < 120; ++i) {
    Result<XmlDocument> doc =
        GenerateDocument(truth.value(), alphabet, &rng);
    ASSERT_TRUE(doc.ok());
    corpus.push_back(doc->ToXml());
  }
  DtdInferrer inferrer;
  for (const std::string& doc : corpus) {
    ASSERT_TRUE(inferrer.AddXml(doc).ok());
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
        << report.issues[0].element << ": " << report.issues[0].message;
  }
}

TEST(DtdInferrer, ErrorsOnEmptyState) {
  DtdInferrer inferrer;
  EXPECT_EQ(inferrer.InferDtd().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(inferrer.InferContentModel(0).status().code(),
            StatusCode::kNotFound);
}

TEST(DtdInferrer, NoiseThresholdCleansContentModels) {
  InferenceOptions options;
  options.learner = "crx";
  options.noise_symbol_threshold = 5;
  DtdInferrer inferrer(options);
  Symbol e = inferrer.alphabet()->Intern("e");
  Symbol a = inferrer.alphabet()->Intern("a");
  Symbol noise = inferrer.alphabet()->Intern("zz");
  std::vector<Word> words(50, Word{a});
  words.push_back(Word{a, noise});
  inferrer.AddWords(e, words);
  Result<ContentModel> model = inferrer.InferContentModel(e);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(ToDtdString(model->regex, *inferrer.alphabet()), "(a)");
}

}  // namespace
}  // namespace condtd
