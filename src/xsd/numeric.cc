#include "xsd/numeric.h"

#include <algorithm>
#include <limits>
#include <set>

#include "regex/properties.h"

namespace condtd {

namespace {

/// True for a factor body the annotation applies to: a symbol or a
/// disjunction of symbols. `out` receives the symbol set.
bool FactorSymbols(const ReRef& re, std::set<Symbol>* out) {
  if (re->kind() == ReKind::kSymbol) {
    out->insert(re->symbol());
    return true;
  }
  if (re->kind() != ReKind::kDisj) return false;
  for (const auto& c : re->children()) {
    if (c->kind() != ReKind::kSymbol) return false;
    out->insert(c->symbol());
  }
  return true;
}

void Annotate(const ReRef& re, const CrxState& crx,
              NumericAnnotations* out) {
  if (re->kind() == ReKind::kPlus || re->kind() == ReKind::kStar) {
    std::set<Symbol> factor;
    if (FactorSymbols(re->child(), &factor)) {
      int min_count = std::numeric_limits<int>::max();
      int max_count = 0;
      crx.ForEachHistogram([&](CrxState::HistogramView histogram, int64_t) {
        int total = 0;
        for (const auto& [sym, n] : histogram) {
          if (factor.count(sym) > 0) total += n;
        }
        min_count = std::min(min_count, total);
        max_count = std::max(max_count, total);
      });
      if (crx.has_empty_word()) min_count = 0;
      if (min_count == std::numeric_limits<int>::max()) min_count = 0;
      // A `+` factor can only have been inferred from counts >= 1.
      if (re->kind() == ReKind::kPlus) min_count = std::max(min_count, 1);
      NumericAnnotation annotation;
      annotation.min_occurs = min_count;
      annotation.max_occurs = (min_count == max_count)
                                  ? max_count
                                  : NumericAnnotation::kUnbounded;
      (*out)[re.get()] = annotation;
    }
  }
  for (const auto& c : re->children()) {
    Annotate(c, crx, out);
  }
}

}  // namespace

NumericAnnotations AnnotateNumericFromHistograms(const ReRef& re,
                                                 const CrxState& crx) {
  NumericAnnotations out;
  if (!IsSore(re)) return out;  // factors would not be identifiable
  Annotate(re, crx, &out);
  return out;
}

NumericAnnotations AnnotateNumeric(const ReRef& re,
                                   const std::vector<Word>& sample) {
  CrxState crx;
  crx.AddWords(sample);
  return AnnotateNumericFromHistograms(re, crx);
}

namespace {

void PrintNumeric(const ReRef& re, const NumericAnnotations& annotations,
                  const Alphabet& alphabet, int min_prec, std::string* out) {
  auto precedence = [](ReKind kind) {
    switch (kind) {
      case ReKind::kDisj:
      case ReKind::kShuffle:
        return 0;
      case ReKind::kConcat:
        return 1;
      default:
        return 2;
    }
  };
  auto it = annotations.find(re.get());
  if (it != annotations.end()) {
    const NumericAnnotation& a = it->second;
    const ReRef& body = re->child();
    bool parens = body->kind() != ReKind::kSymbol;
    if (parens) *out += '(';
    PrintNumeric(body, annotations, alphabet, 0, out);
    if (parens) *out += ')';
    if (a.max_occurs == a.min_occurs) {
      *out += '=';
    } else {
      *out += ">=";
    }
    *out += std::to_string(a.min_occurs);
    return;
  }
  bool parens = precedence(re->kind()) < min_prec;
  if (parens) *out += '(';
  switch (re->kind()) {
    case ReKind::kSymbol:
      *out += alphabet.Name(re->symbol());
      break;
    case ReKind::kConcat:
      for (size_t i = 0; i < re->children().size(); ++i) {
        if (i > 0) *out += ' ';
        PrintNumeric(re->children()[i], annotations, alphabet, 2, out);
      }
      break;
    case ReKind::kDisj:
      for (size_t i = 0; i < re->children().size(); ++i) {
        if (i > 0) *out += " + ";
        PrintNumeric(re->children()[i], annotations, alphabet, 1, out);
      }
      break;
    case ReKind::kShuffle:
      for (size_t i = 0; i < re->children().size(); ++i) {
        if (i > 0) *out += " & ";
        PrintNumeric(re->children()[i], annotations, alphabet, 1, out);
      }
      break;
    case ReKind::kPlus:
      PrintNumeric(re->child(), annotations, alphabet, 3, out);
      *out += '+';
      break;
    case ReKind::kOpt:
      PrintNumeric(re->child(), annotations, alphabet, 3, out);
      *out += '?';
      break;
    case ReKind::kStar:
      PrintNumeric(re->child(), annotations, alphabet, 3, out);
      *out += '*';
      break;
  }
  if (parens) *out += ')';
}

}  // namespace

std::string ToNumericString(const ReRef& re,
                            const NumericAnnotations& annotations,
                            const Alphabet& alphabet) {
  std::string out;
  PrintNumeric(re, annotations, alphabet, 0, &out);
  return out;
}

}  // namespace condtd
