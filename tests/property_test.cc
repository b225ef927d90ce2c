// Property-based conformance suite: every registered learner is run
// against hundreds of random target expressions and checked against the
// invariant oracles of src/check (sample inclusion, one-unambiguity,
// SORE/CHARE validity, the Theorem 1/2 language guarantees), plus the
// merge-algebra, ingestion-equivalence, datatype, incremental-query and
// DTD round-trip properties.
//
// Every failure prints a one-line reproduction recipe; re-run with
// CONDTD_PROPERTY_SEED=<printed seed> to replay the failing instance as
// instance 0.

#include "check/property.h"

#include <gtest/gtest.h>

#include "check/oracles.h"

namespace condtd {
namespace {

/// Instance counts per property. The learner properties meet the
/// >= 500-instances-per-learner bar; the corpus-level properties spin up
/// whole ingestion pipelines per instance and run fewer.
constexpr int kLearnerInstances = 500;
constexpr int kInterleavingInstances = 250;  // two learners per instance
constexpr int kMergeLawInstances = 200;
constexpr int kRoundTripInstances = 300;
constexpr int kIngestionInstances = 120;
constexpr int kDatatypeInstances = 100;
constexpr int kIncrementalQueryInstances = 200;

PropertyOptions BaseOptions(int instances) {
  PropertyOptions options;
  options.seed = SeedFromEnv(options.seed);
  options.instances = instances;
  return options;
}

void ExpectNoFailures(const std::vector<PropertyFailure>& failures) {
  for (const PropertyFailure& failure : failures) {
    ADD_FAILURE() << FailureToString(failure);
  }
}

TEST(LearnerProperty, Idtd) {
  ExpectNoFailures(
      RunLearnerProperty("idtd", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Rewrite) {
  ExpectNoFailures(
      RunLearnerProperty("rewrite", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Crx) {
  ExpectNoFailures(
      RunLearnerProperty("crx", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Auto) {
  ExpectNoFailures(
      RunLearnerProperty("auto", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Isore) {
  ExpectNoFailures(
      RunLearnerProperty("isore", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Sire) {
  ExpectNoFailures(
      RunLearnerProperty("sire", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Trang) {
  ExpectNoFailures(
      RunLearnerProperty("trang", BaseOptions(kLearnerInstances)));
}

TEST(LearnerProperty, Xtract) {
  ExpectNoFailures(
      RunLearnerProperty("xtract", BaseOptions(kLearnerInstances)));
}

// Interleaving targets: random top-level shuffles of disjoint SOREs,
// learned by isore and sire; both must emit a valid SIRE that contains
// the sample, stays one-unambiguous and never exceeds (in tokens or in
// language) the idtd/crx baseline on the same summary.
TEST(LearnerProperty, InterleavingTargets) {
  ExpectNoFailures(
      RunInterleavingProperty(BaseOptions(kInterleavingInstances)));
}

TEST(AlgebraProperty, MergeLaws) {
  ExpectNoFailures(RunMergeLawProperty(BaseOptions(kMergeLawInstances)));
}

TEST(AlgebraProperty, IngestionEquivalence) {
  ExpectNoFailures(RunIngestionProperty(BaseOptions(kIngestionInstances)));
}

// Values that break an element's early type late: the XSD must declare
// a type every value satisfies, the same at jobs 1, 2 and 7.
TEST(AlgebraProperty, Datatypes) {
  ExpectNoFailures(RunDatatypeProperty(BaseOptions(kDatatypeInstances)));
}

TEST(AlgebraProperty, IncrementalQuery) {
  ExpectNoFailures(
      RunIncrementalQueryProperty(BaseOptions(kIncrementalQueryInstances)));
}

TEST(AlgebraProperty, DtdRoundTrip) {
  ExpectNoFailures(RunRoundTripProperty(BaseOptions(kRoundTripInstances)));
}

// Harness self-checks: the printed seed must reproduce the failing
// instance directly (instance 0 uses the base seed verbatim), and the
// derived streams must not collide trivially.
TEST(PropertyHarness, InstanceSeedZeroIsBase) {
  EXPECT_EQ(InstanceSeed(12345, 0), 12345u);
  EXPECT_NE(InstanceSeed(12345, 1), 12345u);
  EXPECT_NE(InstanceSeed(12345, 1), InstanceSeed(12345, 2));
  EXPECT_NE(InstanceSeed(12345, 1), InstanceSeed(54321, 1));
}

TEST(PropertyHarness, ReproLineCarriesSeed) {
  PropertyFailure failure;
  failure.learner = "idtd";
  failure.seed = 987654321;
  failure.oracle = "sample-inclusion";
  std::string line = ReproLine(failure);
  EXPECT_NE(line.find("CONDTD_PROPERTY_SEED=987654321"), std::string::npos)
      << line;
}

// A deliberately broken "learner output" must trip the oracles — guards
// against the harness silently passing everything.
TEST(PropertyHarness, OraclesDetectViolations) {
  Alphabet alphabet;
  Symbol a = alphabet.Intern("a");
  Symbol b = alphabet.Intern("b");
  ReRef just_a = Re::Sym(a);
  ReRef a_then_b = Re::Concat({Re::Sym(a), Re::Sym(b)});

  EXPECT_FALSE(
      CheckSampleInclusion(just_a, {{a, b}}, alphabet).passed);
  EXPECT_TRUE(CheckSampleInclusion(a_then_b, {{a, b}}, alphabet).passed);

  // a?a: two competing a-positions, so neither one-unambiguous nor SORE.
  ReRef ambiguous = Re::Concat({Re::Opt(Re::Sym(a)), Re::Sym(a)});
  EXPECT_FALSE(CheckDeterminism(ambiguous, alphabet).passed);
  EXPECT_FALSE(CheckSoreValidity(ambiguous, alphabet).passed);
  EXPECT_TRUE(CheckSoreValidity(a_then_b, alphabet).passed);

  EXPECT_FALSE(CheckLanguageInclusion(a_then_b, just_a, alphabet).passed);
  EXPECT_TRUE(CheckLanguageInclusion(just_a,
                                     Re::Disj({just_a, a_then_b}),
                                     alphabet)
                  .passed);
  EXPECT_FALSE(CheckLanguageEquivalence(just_a, a_then_b, alphabet).passed);

  // Interleaving oracles. a & b is a SIRE; a shuffle nested under any
  // operator is not in the restricted class.
  ReRef shuffle = Re::Shuffle({Re::Sym(a), Re::Sym(b)});
  EXPECT_TRUE(CheckSireValidity(shuffle, alphabet).passed);
  EXPECT_TRUE(CheckSireValidity(a_then_b, alphabet).passed);
  EXPECT_FALSE(CheckSireValidity(Re::Plus(shuffle), alphabet).passed);

  // Dominance: a & b (2 tokens) vs its 4-token expansion passes; vs the
  // one-order baseline "a b" it fails — 'b a' escapes the baseline.
  ReRef expansion = Re::Disj({Re::Concat({Re::Sym(a), Re::Sym(b)}),
                              Re::Concat({Re::Sym(b), Re::Sym(a)})});
  EXPECT_TRUE(CheckConcisenessDominance(shuffle, expansion, alphabet).passed);
  EXPECT_FALSE(
      CheckConcisenessDominance(shuffle, a_then_b, alphabet).passed);
}

}  // namespace
}  // namespace condtd
