// Integration tests for the `condtd` command-line tool: every
// subcommand is exercised end to end through a real process. The binary
// path is injected by CMake (CONDTD_CLI_PATH).

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/file.h"
#include "tests/testing.h"

namespace condtd {
namespace {

#ifndef CONDTD_CLI_PATH
#define CONDTD_CLI_PATH "condtd"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult RunCli(const std::string& args) {
  std::string command = std::string(CONDTD_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/condtd_cli_" + name;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml1_ = TempPath("doc1.xml");
    xml2_ = TempPath("doc2.xml");
    ASSERT_TRUE(WriteStringToFile(
                    xml1_,
                    "<library><book id=\"1\"><title>A</title>"
                    "<author>x</author><author>y</author></book></library>")
                    .ok());
    ASSERT_TRUE(WriteStringToFile(
                    xml2_,
                    "<library><book><title>B</title>"
                    "<author>z</author><year>2001</year></book></library>")
                    .ok());
  }

  std::string xml1_;
  std::string xml2_;
};

TEST_F(CliTest, UsageOnNoArguments) {
  CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, InferDtd) {
  CommandResult result = RunCli("infer " + xml1_ + " " + xml2_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // Each document has exactly one book, so the inferred model is (book).
  EXPECT_NE(result.output.find("<!ELEMENT library (book)>"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("<!ELEMENT book (title, author+, year?)>"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, InferXsdAndValidateAgainstIt) {
  std::string xsd_path = TempPath("schema.xsd");
  CommandResult infer =
      RunCli("infer --xsd --out=" + xsd_path + " " + xml1_ + " " + xml2_);
  ASSERT_EQ(infer.exit_code, 0) << infer.output;
  CommandResult validate =
      RunCli("validate --schema=" + xsd_path + " " + xml1_ + " " + xml2_);
  EXPECT_EQ(validate.exit_code, 0) << validate.output;
  EXPECT_NE(validate.output.find("valid"), std::string::npos);
}

TEST_F(CliTest, StatePipelineMatchesOneShot) {
  std::string state = TempPath("state");
  ASSERT_EQ(RunCli("infer --state-out=" + state + " " + xml1_).exit_code,
            0);
  CommandResult resumed =
      RunCli("infer --state-in=" + state + " " + xml2_);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  CommandResult oneshot = RunCli("infer " + xml1_ + " " + xml2_);
  EXPECT_EQ(resumed.output, oneshot.output);

  // Two roots before the resume: the state lists root `b` ahead of the
  // element `c` that the first run numbered (and declares) before it.
  std::string d1 = TempPath("d1.xml");
  std::string d2 = TempPath("d2.xml");
  std::string e1 = TempPath("e1.xml");
  ASSERT_TRUE(WriteStringToFile(d1, testing_util::kTwoRootDocs[0]).ok());
  ASSERT_TRUE(WriteStringToFile(d2, testing_util::kTwoRootDocs[1]).ok());
  ASSERT_TRUE(WriteStringToFile(e1, testing_util::kSoaOrderDocs[0]).ok());
  ASSERT_EQ(
      RunCli("infer --state-out=" + state + " " + d1 + " " + d2).exit_code,
      0);
  resumed = RunCli("infer --state-in=" + state + " " + e1);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  oneshot = RunCli("infer " + d1 + " " + d2 + " " + e1);
  EXPECT_EQ(resumed.output, oneshot.output);

  // Sharded: the state loads into the first shard, ahead of every
  // document, and the merge still declares the one-shot DTD.
  resumed = RunCli("infer --jobs=3 --batch-docs=1 --state-in=" + state +
                   " " + e1 + " " + d1);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  oneshot = RunCli("infer " + d1 + " " + d2 + " " + e1 + " " + d1);
  EXPECT_EQ(resumed.output, oneshot.output);
}

TEST_F(CliTest, ValidateCatchesViolations) {
  std::string dtd_path = TempPath("strict.dtd");
  ASSERT_TRUE(WriteStringToFile(dtd_path,
                                "<!ELEMENT library (book)>\n"
                                "<!ELEMENT book (title)>\n"
                                "<!ELEMENT title (#PCDATA)>\n")
                  .ok());
  CommandResult result =
      RunCli("validate --schema=" + dtd_path + " " + xml1_);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("do not match"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, GenProducesValidatableDocuments) {
  std::string dtd_path = TempPath("gen.dtd");
  ASSERT_TRUE(WriteStringToFile(dtd_path,
                                "<!ELEMENT db (rec*)>\n"
                                "<!ELEMENT rec (#PCDATA)>\n")
                  .ok());
  std::string prefix = TempPath("gendoc");
  CommandResult gen = RunCli("gen --schema=" + dtd_path +
                             " --count=3 --prefix=" + prefix);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  CommandResult validate =
      RunCli("validate --schema=" + dtd_path + " " + prefix + "0.xml " +
             prefix + "1.xml " + prefix + "2.xml");
  EXPECT_EQ(validate.exit_code, 0) << validate.output;
}

TEST_F(CliTest, RegexMembership) {
  CommandResult result =
      RunCli("regex \"((b?(a|c))+d)+e\" bacacdacde abe");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bacacdacde"), std::string::npos);
  EXPECT_NE(result.output.find("accepted"), std::string::npos);
  EXPECT_NE(result.output.find("rejected"), std::string::npos);
}

TEST_F(CliTest, StatsClassifiesContentModels) {
  std::string dtd_path = TempPath("stats.dtd");
  ASSERT_TRUE(WriteStringToFile(
                  dtd_path,
                  "<!ELEMENT r (a, (b | c)*, d?)>\n"
                  "<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n"
                  "<!ELEMENT c EMPTY>\n<!ELEMENT d EMPTY>\n")
                  .ok());
  CommandResult result = RunCli("stats " + dtd_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("100% CHAREs"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, ContextReportAndLocalXsd) {
  std::string shop = TempPath("shop.xml");
  ASSERT_TRUE(WriteStringToFile(
                  shop,
                  "<shop><person><name><first>A</first></name></person>"
                  "<company><name><legal>B</legal></name></company>"
                  "</shop>")
                  .ok());
  CommandResult report = RunCli("context " + shop);
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_EQ(report.output, R"(shop: (person, company)  (uniform; DTD-expressible)
person: (name)  (uniform; DTD-expressible)
name: 2 context-dependent types
  under person: (first) (1 occurrences)
  under company: (legal) (1 occurrences)
  DTD approximation: (first | legal)
first: (#PCDATA)  (uniform; DTD-expressible)
company: (name)  (uniform; DTD-expressible)
legal: (#PCDATA)  (uniform; DTD-expressible)
)");
  CommandResult xsd = RunCli("context --xsd " + shop);
  EXPECT_EQ(xsd.exit_code, 0) << xsd.output;
  EXPECT_EQ(xsd.output, R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shop">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="person"/>
        <xs:element ref="company"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="person">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name">
          <xs:complexType>
            <xs:sequence>
              <xs:element ref="first"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="name">
    <xs:complexType>
      <xs:choice>
        <xs:element ref="first"/>
        <xs:element ref="legal"/>
      </xs:choice>
    </xs:complexType>
  </xs:element>
  <xs:element name="first" type="xs:string"/>
  <xs:element name="company">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name">
          <xs:complexType>
            <xs:sequence>
              <xs:element ref="legal"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="legal" type="xs:string"/>
</xs:schema>
)");
}

TEST_F(CliTest, DiffReportsStricterModels) {
  std::string official = TempPath("official.dtd");
  std::string inferred = TempPath("inferred.dtd");
  ASSERT_TRUE(WriteStringToFile(official,
                                "<!ELEMENT r (v?, m?)>\n"
                                "<!ELEMENT v EMPTY>\n<!ELEMENT m EMPTY>\n")
                  .ok());
  ASSERT_TRUE(WriteStringToFile(inferred,
                                "<!ELEMENT r (v | m)>\n"
                                "<!ELEMENT v EMPTY>\n<!ELEMENT m EMPTY>\n")
                  .ok());
  CommandResult result = RunCli("diff " + inferred + " " + official);
  EXPECT_EQ(result.exit_code, 1);  // not language-equal
  EXPECT_NE(result.output.find("left is stricter"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("allowed by only one side"),
            std::string::npos);
  // Identical inputs exit 0.
  CommandResult same = RunCli("diff " + official + " " + official);
  EXPECT_EQ(same.exit_code, 0) << same.output;
}

TEST_F(CliTest, InferWithBaselineLearners) {
  // Any registered learner name works, including the Section 8
  // baselines the enum never covered.
  CommandResult trang = RunCli("infer --algorithm=trang " + xml1_);
  EXPECT_EQ(trang.exit_code, 0) << trang.output;
  EXPECT_NE(trang.output.find("<!ELEMENT library"), std::string::npos)
      << trang.output;
  CommandResult xtract = RunCli("infer --algorithm=xtract " + xml1_);
  EXPECT_EQ(xtract.exit_code, 0) << xtract.output;
  EXPECT_NE(xtract.output.find("<!ELEMENT library"), std::string::npos)
      << xtract.output;
}

TEST_F(CliTest, UnknownAlgorithmListsRegisteredNames) {
  CommandResult result = RunCli("infer --algorithm=nope " + xml1_);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown algorithm 'nope'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("auto, idtd, crx, isore, sire, rewrite, trang, xtract"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, LenientInfersFromTagSoup) {
  std::string soup = TempPath("soup.xml");
  ASSERT_TRUE(WriteStringToFile(
                  soup, "<html><body><p>one<p>two</body></html>")
                  .ok());
  EXPECT_EQ(RunCli("infer " + soup).exit_code, 1);  // strict rejects
  CommandResult lenient = RunCli("infer --lenient " + soup);
  EXPECT_EQ(lenient.exit_code, 0) << lenient.output;
  EXPECT_NE(lenient.output.find("<!ELEMENT html"), std::string::npos);
}

TEST_F(CliTest, ContextTakesTheLearnerFlags) {
  // --lenient, --algorithm and --noise parse as for infer and reach the
  // contextual inferrer.
  std::string soup = TempPath("context_soup.xml");
  ASSERT_TRUE(WriteStringToFile(
                  soup, "<html><body><p>one<p>two</body></html>")
                  .ok());
  EXPECT_EQ(RunCli("context " + soup).exit_code, 1);  // strict rejects
  CommandResult lenient = RunCli("context --lenient " + soup);
  EXPECT_EQ(lenient.exit_code, 0) << lenient.output;
  EXPECT_EQ(lenient.output, R"(html: (body)  (uniform; DTD-expressible)
body: (p)  (uniform; DTD-expressible)
p: 2 context-dependent types
  under body: (#PCDATA | p)* (1 occurrences)
  under p: (#PCDATA) (1 occurrences)
  DTD approximation: (#PCDATA | p)*
)");

  CommandResult unknown = RunCli("context --algorithm=nope " + soup);
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.output.find("unknown algorithm 'nope' (registered: "
                                "auto, idtd, crx, isore, sire, rewrite, "
                                "trang, xtract)"),
            std::string::npos)
      << unknown.output;

  CommandResult junk = RunCli("context --noise=abc " + soup);
  EXPECT_EQ(junk.exit_code, 2);
  EXPECT_NE(junk.output.find("--noise=abc: expected an integer >= 0"),
            std::string::npos)
      << junk.output;

  // z occurs once: --noise=2 drops it from s's model, under either
  // learner.
  std::string noisy = TempPath("context_noisy.xml");
  ASSERT_TRUE(WriteStringToFile(
                  noisy, "<r><s><a/></s><s><a/></s><s><a/><z/></s></r>")
                  .ok());
  CommandResult plain = RunCli("context " + noisy);
  EXPECT_NE(plain.output.find("s: (a, z?)  (uniform"), std::string::npos)
      << plain.output;
  for (const char* learner : {"idtd", "crx"}) {
    CommandResult pruned = RunCli("context --noise=2 --algorithm=" +
                                  std::string(learner) + " " + noisy);
    EXPECT_EQ(pruned.exit_code, 0) << pruned.output;
    EXPECT_NE(pruned.output.find("s: (a)  (uniform"), std::string::npos)
        << learner << "\n"
        << pruned.output;
  }
}

TEST_F(CliTest, MissingFileFails) {
  CommandResult result = RunCli("infer /nonexistent/x.xml");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("NotFound"), std::string::npos);
}

TEST_F(CliTest, RejectsInvalidJobs) {
  for (const char* bad : {"0", "-2", "abc", "", "3x"}) {
    CommandResult result =
        RunCli("infer --jobs=" + std::string(bad) + " " + xml1_);
    EXPECT_EQ(result.exit_code, 2) << "--jobs=" << bad << "\n"
                                   << result.output;
    EXPECT_NE(result.output.find("expected an integer >= 1"),
              std::string::npos)
        << "--jobs=" << bad << "\n"
        << result.output;
  }
}

TEST_F(CliTest, RejectsInvalidNoiseAndMaxStrings) {
  CommandResult noise = RunCli("infer --noise=-1 " + xml1_);
  EXPECT_EQ(noise.exit_code, 2);
  EXPECT_NE(noise.output.find("--noise=-1"), std::string::npos)
      << noise.output;

  CommandResult strings = RunCli("infer --max-strings=none " + xml1_);
  EXPECT_EQ(strings.exit_code, 2);
  EXPECT_NE(strings.output.find("--max-strings=none"), std::string::npos)
      << strings.output;
}

TEST_F(CliTest, MaxStringsBoundsXtract) {
  CommandResult result =
      RunCli("infer --algorithm=xtract --max-strings=1 " + xml1_ + " " +
             xml2_);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("ResourceExhausted"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, StatsFlagEmitsReportWithoutChangingTheSchema) {
  CommandResult plain = RunCli("infer " + xml1_ + " " + xml2_);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;

  // --stats adds the report on stderr; the schema on stdout is intact
  // and unchanged (stdout/stderr interleaving through the combined pipe
  // is buffering-dependent, so only containment is checked).
  CommandResult text = RunCli("infer --stats " + xml1_ + " " + xml2_);
  EXPECT_EQ(text.exit_code, 0) << text.output;
  EXPECT_NE(text.output.find(plain.output), std::string::npos)
      << text.output;

  CommandResult json = RunCli("infer --stats=json " + xml1_ + " " + xml2_);
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find(plain.output), std::string::npos)
      << json.output;
  for (const char* key :
       {"\"condtd_stats_version\": 1", "\"counters\"", "\"learners\"",
        "\"scheduling\"", "\"gauges\"", "\"wall\""}) {
    EXPECT_NE(json.output.find(key), std::string::npos)
        << key << "\n" << json.output;
  }
#ifdef CONDTD_NO_STATS
  // The kill-switch build still accepts the flag and renders the full
  // schema, but reports itself disabled with all-zero counts.
  EXPECT_NE(json.output.find("\"enabled\": false"), std::string::npos)
      << json.output;
#else
  EXPECT_NE(text.output.find("documents_ingested"), std::string::npos)
      << text.output;
  for (const char* key : {"\"enabled\": true", "\"documents_ingested\": 2"}) {
    EXPECT_NE(json.output.find(key), std::string::npos)
        << key << "\n" << json.output;
  }
#endif

  CommandResult bad = RunCli("infer --stats=yaml " + xml1_);
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("expected 'json' or 'text'"),
            std::string::npos)
      << bad.output;
}

TEST_F(CliTest, StatsCountersSubtreeIsIdenticalAcrossJobs) {
  // Returns the `counters` subtree; also requires every job count to
  // open each of the two input files inside an io_read span.
#ifdef CONDTD_NO_STATS
  // The kill-switch build compiles the spans out: every count reads 0.
  const char* io_read = "\"io_read\": {\"count\": 0,";
#else
  const char* io_read = "\"io_read\": {\"count\": 2,";
#endif
  auto counters_of = [&](const std::string& jobs_flag) {
    CommandResult result =
        RunCli("infer --stats=json " + jobs_flag + " " + xml1_ + " " + xml2_);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find(io_read), std::string::npos)
        << jobs_flag << ": " << result.output;
    size_t start = result.output.find("\"counters\": {");
    size_t end = result.output.find('}', start);
    EXPECT_NE(start, std::string::npos) << result.output;
    EXPECT_NE(end, std::string::npos) << result.output;
    return result.output.substr(start, end - start);
  };
  std::string base = counters_of("");
  EXPECT_EQ(counters_of("--jobs=2"), base);
  EXPECT_EQ(counters_of("--jobs=5"), base);
}

TEST_F(CliTest, ParallelInferReportsEveryFailedDocument) {
  std::string bad1 = TempPath("bad1.xml");
  std::string bad2 = TempPath("bad2.xml");
  ASSERT_TRUE(WriteStringToFile(bad1, "<a><b></a>").ok());
  ASSERT_TRUE(WriteStringToFile(bad2, "not xml at all").ok());
  CommandResult result = RunCli("infer --jobs=2 " + xml1_ + " " + bad1 +
                                " " + xml2_ + " " + bad2);
  EXPECT_EQ(result.exit_code, 1);
  // One line per failed document — not just the first failure.
  EXPECT_NE(result.output.find(bad1 + ":"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(bad2 + ":"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("2 of 4 documents failed"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, InferWithoutInputsExplainsItself) {
  CommandResult result = RunCli("infer --jobs=2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("no input files"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, GenRejectsInvalidCountAndSeed) {
  std::string dtd_path = TempPath("gen_flags.dtd");
  ASSERT_TRUE(
      WriteStringToFile(dtd_path, "<!ELEMENT a EMPTY>\n").ok());
  CommandResult count =
      RunCli("gen --schema=" + dtd_path + " --count=0");
  EXPECT_EQ(count.exit_code, 2);
  EXPECT_NE(count.output.find("--count=0"), std::string::npos)
      << count.output;

  CommandResult seed =
      RunCli("gen --schema=" + dtd_path + " --seed=-7");
  EXPECT_EQ(seed.exit_code, 2);
  EXPECT_NE(seed.output.find("--seed=-7"), std::string::npos)
      << seed.output;
}

TEST_F(CliTest, ServeRejectsMissingListener) {
  CommandResult result = RunCli("serve");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--socket"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, ServeAndClientRoundTrip) {
  std::string socket_path = TempPath("serve.sock");
  std::string data_dir = TempPath("serve_data");
  std::string endpoint = "--socket=" + socket_path;
  std::remove(socket_path.c_str());
  // The data dir is a fixed per-test path: wipe any corpus a previous
  // run persisted there, or the generation assertions below drift.
  ASSERT_EQ(std::system(("rm -rf '" + data_dir + "'").c_str()), 0);

  // Launch the daemon detached; the trailing '&' lets popen/pclose
  // return immediately while the server keeps running.
  std::string launch = std::string(CONDTD_CLI_PATH) + " serve " +
                       endpoint + " --data-dir=" + data_dir +
                       " --no-fsync >/dev/null 2>&1 &";
  FILE* pipe = popen(launch.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  pclose(pipe);

  // Readiness: ping until the socket answers.
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    up = RunCli("client " + endpoint + " ping").exit_code == 0;
    if (!up) usleep(50 * 1000);
  }
  ASSERT_TRUE(up) << "server never came up";

  CommandResult ingest =
      RunCli("client " + endpoint + " ingest lib " + xml1_ + " " + xml2_);
  EXPECT_EQ(ingest.exit_code, 0) << ingest.output;
  EXPECT_NE(ingest.output.find("documents=2"), std::string::npos)
      << ingest.output;

  // The daemon's answer is byte-identical to the batch CLI over the
  // same documents.
  CommandResult batch = RunCli("infer " + xml1_ + " " + xml2_);
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  CommandResult query = RunCli("client " + endpoint + " query lib");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_EQ(query.output, batch.output);

  CommandResult snapshot =
      RunCli("client " + endpoint + " snapshot lib");
  EXPECT_EQ(snapshot.exit_code, 0) << snapshot.output;
  EXPECT_NE(snapshot.output.find("generation=1"), std::string::npos)
      << snapshot.output;

  CommandResult stats = RunCli("client " + endpoint + " stats");
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("\"condtd_serve_stats_version\": 1"),
            std::string::npos)
      << stats.output;

  CommandResult shutdown = RunCli("client " + endpoint + " shutdown");
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
  // The socket file disappears on clean shutdown.
  for (int i = 0; i < 100; ++i) {
    if (access(socket_path.c_str(), F_OK) != 0) break;
    usleep(50 * 1000);
  }
  EXPECT_NE(access(socket_path.c_str(), F_OK), 0);
}

// TCP daemon lifecycle without a fixed port: --port=0 binds whatever the
// kernel has free and the readiness line reports the choice, so parallel
// test runs (or an occupied port on a shared machine) cannot collide.
TEST_F(CliTest, ServeAndClientRoundTripTcpEphemeralPort) {
  std::string data_dir = TempPath("serve_tcp_data");
  std::string log_path = TempPath("serve_tcp.log");
  ASSERT_EQ(std::system(("rm -rf '" + data_dir + "'").c_str()), 0);
  std::remove(log_path.c_str());

  std::string launch = std::string(CONDTD_CLI_PATH) +
                       " serve --port=0 --data-dir=" + data_dir +
                       " --no-fsync >" + log_path + " 2>&1 &";
  FILE* pipe = popen(launch.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  pclose(pipe);

  // Readiness: poll the log for "condtd serve listening on HOST:PORT"
  // and parse the kernel-chosen port out of it.
  int port = -1;
  for (int i = 0; i < 100 && port < 0; ++i) {
    Result<std::string> log = ReadFileToString(log_path);
    if (log.ok()) {
      size_t pos = log->find("listening on ");
      size_t colon = pos == std::string::npos
                         ? std::string::npos
                         : log->find(':', pos);
      if (colon != std::string::npos) {
        port = std::atoi(log->c_str() + colon + 1);
      }
    }
    if (port < 0) usleep(50 * 1000);
  }
  ASSERT_GT(port, 0) << "no readiness line with a port in " << log_path;

  std::string endpoint = "--port=" + std::to_string(port);
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    up = RunCli("client " + endpoint + " ping").exit_code == 0;
    if (!up) usleep(50 * 1000);
  }
  ASSERT_TRUE(up) << "server never answered on port " << port;

  CommandResult ingest =
      RunCli("client " + endpoint + " ingest lib " + xml1_ + " " + xml2_);
  EXPECT_EQ(ingest.exit_code, 0) << ingest.output;
  CommandResult batch = RunCli("infer " + xml1_ + " " + xml2_);
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  CommandResult query = RunCli("client " + endpoint + " query lib");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_EQ(query.output, batch.output);

  CommandResult shutdown = RunCli("client " + endpoint + " shutdown");
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.output;
  // A post-shutdown ping must fail once the listener is gone.
  bool down = false;
  for (int i = 0; i < 100 && !down; ++i) {
    down = RunCli("client " + endpoint + " ping").exit_code != 0;
    if (!down) usleep(50 * 1000);
  }
  EXPECT_TRUE(down) << "listener survived shutdown on port " << port;
}

// The interleaving learner is reachable end-to-end from --algorithm and
// emits an AND group on permuted-order input (the unordered corpus of
// tests/data is pinned in differential_test; this is the CLI surface).
TEST_F(CliTest, InferIsoreEmitsAndGroupOnUnorderedInput) {
  std::string doc1 = TempPath("unordered1.xml");
  std::string doc2 = TempPath("unordered2.xml");
  ASSERT_TRUE(WriteStringToFile(
                  doc1,
                  "<root><item><a/><b/><c/></item>"
                  "<item><c/><b/><a/></item></root>")
                  .ok());
  ASSERT_TRUE(WriteStringToFile(
                  doc2,
                  "<root><item><b/><c/><a/></item>"
                  "<item><a/><c/><b/></item></root>")
                  .ok());
  CommandResult isore = RunCli("infer --algorithm=isore " + doc1 + " " + doc2);
  ASSERT_EQ(isore.exit_code, 0) << isore.output;
  EXPECT_NE(isore.output.find("(a & b & c)"), std::string::npos)
      << isore.output;
  CommandResult idtd = RunCli("infer --algorithm=idtd " + doc1 + " " + doc2);
  ASSERT_EQ(idtd.exit_code, 0) << idtd.output;
  EXPECT_EQ(idtd.output.find(" & "), std::string::npos) << idtd.output;
}

}  // namespace
}  // namespace condtd
