#ifndef CONDTD_INFER_CONTEXTUAL_H_
#define CONDTD_INFER_CONTEXTUAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"

namespace condtd {

/// The paper's stated next step (Sections 1.2, 9, 10): XSDs are, per
/// [9], DTDs extended with *vertical* context — the type of an element
/// may depend on where it occurs. This module implements the simplest
/// vertical extension: 1-local types, where content models are learned
/// per (parent, element) pair and merged back to a single DTD type when
/// the per-parent languages agree.
///
/// This is exactly the k = 1 ancestor-based fragment of the XSD
/// inference the paper leaves as future work. Documents go through the
/// one streaming fold (StreamingFolder) with a ContextSummaries map
/// attached: the pooled summaries are a plain DtdInferrer's, and every
/// per-context and pooled model is learned by DtdInferrer::InferElement.
class ContextualInferrer {
 public:
  explicit ContextualInferrer(InferenceOptions options = {});

  Alphabet* alphabet() { return inferrer_.alphabet(); }
  const Alphabet& alphabet() const { return inferrer_.alphabet(); }

  /// The pooled inference — the same DtdInferrer a plain `condtd infer`
  /// builds over the documents — and the per-context summaries.
  const DtdInferrer& pooled() const { return inferrer_; }
  const ContextSummaries& contexts() const { return contexts_; }

  /// Parses and folds one document (strict or lenient per
  /// `lenient_xml`). On error the document contributes nothing.
  Status AddXml(std::string_view xml);

  /// One inferred type of an element together with the parents it
  /// occurs under (kInvalidSymbol = document root). Parents whose
  /// learned languages coincide are merged into one type.
  struct ContextType {
    std::vector<Symbol> parents;
    ContentModel model;
    int64_t occurrences = 0;
    /// Attributes over every occurrence under these parents (#REQUIRED
    /// iff on all of them).
    std::vector<Dtd::AttributeDef> attributes;
  };

  /// The result: for every element, its per-parent types after merging
  /// language-equivalent ones, plus the single DTD type (the union of
  /// contexts) for comparison.
  struct Report {
    struct ElementTypes {
      Symbol element;
      /// Distinct types; size() == 1 means the element is DTD-expressible.
      std::vector<ContextType> types;
      /// What a plain DTD must use (all contexts pooled).
      ContentModel merged;
      std::vector<Dtd::AttributeDef> merged_attributes;
    };
    std::vector<ElementTypes> elements;

    /// Elements that genuinely need vertical context (>= 2 types).
    int NumContextDependent() const;
  };

  Result<Report> Infer() const;

  /// Human-readable rendering of the report.
  std::string ReportToString(const Report& report) const;

  /// An XML Schema using *local element declarations* (russian-doll
  /// style) for the context-dependent elements — the schema a DTD cannot
  /// express. Uniform elements are declared globally and referenced;
  /// context-dependent ones are declared inline under each parent with
  /// their per-context type and attributes. Recursive context chains
  /// fall back to the pooled global declaration to stay finite.
  /// Attributes are declared in WriteXsd's shapes.
  Result<std::string> InferLocalXsd() const;

 private:
  DtdInferrer inferrer_;
  ContextSummaries contexts_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_CONTEXTUAL_H_
