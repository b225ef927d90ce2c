#ifndef CONDTD_XSD_NUMERIC_H_
#define CONDTD_XSD_NUMERIC_H_

#include <map>
#include <string>
#include <vector>

#include "crx/crx.h"
#include "regex/ast.h"

namespace condtd {

/// Occurrence bounds for one RE node. max_occurs == kUnbounded means
/// "unbounded" (the paper's r≥i); min_occurs == max_occurs realizes r=i.
struct NumericAnnotation {
  static constexpr int kUnbounded = -1;
  int min_occurs = 1;
  int max_occurs = 1;
};

/// Map from RE nodes (by identity) to occurrence bounds.
using NumericAnnotations = std::map<const Re*, NumericAnnotation>;

/// Section 9's numerical-predicate post-processing: for every `+`/`*`
/// node of the SORE whose body is a single symbol or a disjunction of
/// symbols, the exact occurrence counts in the sample tighten the
/// operator to r≥i (min observed i) or r=i (constant count). Only
/// meaningful for single-occurrence REs (each symbol belongs to exactly
/// one factor); returns an empty map otherwise.
NumericAnnotations AnnotateNumeric(const ReRef& re,
                                   const std::vector<Word>& sample);

/// Same, but fed from a CRX histogram summary (so the inferrer can
/// annotate without retaining the data).
NumericAnnotations AnnotateNumericFromHistograms(const ReRef& re,
                                                 const CrxState& crx);

/// Renders the RE with numerical predicates in the paper's notation
/// (a=2 b>=2 instead of a a b b b*).
std::string ToNumericString(const ReRef& re,
                            const NumericAnnotations& annotations,
                            const Alphabet& alphabet);

}  // namespace condtd

#endif  // CONDTD_XSD_NUMERIC_H_
