#include "gen/xml_gen.h"

#include <limits>

#include "base/strings.h"

namespace condtd {

namespace {

int MinimalLength(const ReRef& re) {
  switch (re->kind()) {
    case ReKind::kSymbol:
      return 1;
    case ReKind::kConcat: {
      int total = 0;
      for (const auto& c : re->children()) total += MinimalLength(c);
      return total;
    }
    case ReKind::kDisj: {
      int best = std::numeric_limits<int>::max();
      for (const auto& c : re->children()) {
        best = std::min(best, MinimalLength(c));
      }
      return best;
    }
    case ReKind::kShuffle: {
      int total = 0;
      for (const auto& c : re->children()) total += MinimalLength(c);
      return total;
    }
    case ReKind::kPlus:
      return MinimalLength(re->child());
    case ReKind::kOpt:
    case ReKind::kStar:
      return 0;
  }
  return 0;
}

void EmitMinimal(const ReRef& re, Word* out) {
  switch (re->kind()) {
    case ReKind::kSymbol:
      out->push_back(re->symbol());
      break;
    case ReKind::kConcat:
      for (const auto& c : re->children()) EmitMinimal(c, out);
      break;
    case ReKind::kDisj: {
      const ReRef* best = &re->children()[0];
      int best_len = MinimalLength(*best);
      for (const auto& c : re->children()) {
        int len = MinimalLength(c);
        if (len < best_len) {
          best = &c;
          best_len = len;
        }
      }
      EmitMinimal(*best, out);
      break;
    }
    case ReKind::kShuffle:
      // Factors in declaration order form one valid interleaving.
      for (const auto& c : re->children()) EmitMinimal(c, out);
      break;
    case ReKind::kPlus:
      EmitMinimal(re->child(), out);
      break;
    case ReKind::kOpt:
    case ReKind::kStar:
      break;
  }
}

class Generator {
 public:
  Generator(const Dtd& dtd, const Alphabet& alphabet, Rng* rng,
            const XmlGenOptions& options)
      : dtd_(dtd), alphabet_(alphabet), rng_(rng), options_(options) {}

  void Fill(XmlElement* element, Symbol symbol, int depth) {
    auto it = dtd_.elements.find(symbol);
    if (it == dtd_.elements.end()) return;  // undeclared: leave empty
    const ContentModel& model = it->second;
    AddAttributes(element, symbol);
    switch (model.kind) {
      case ContentKind::kEmpty:
        break;
      case ContentKind::kAny:
      case ContentKind::kPcdataOnly:
        element->AppendText("text" + std::to_string(rng_->NextBelow(1000)));
        break;
      case ContentKind::kMixed: {
        element->AppendText("text");
        if (depth < options_.max_depth && !model.mixed_symbols.empty() &&
            rng_->Bernoulli(0.5)) {
          Symbol child = model.mixed_symbols[rng_->NextBelow(
              model.mixed_symbols.size())];
          XmlElement* node = element->AddChild(alphabet_.Name(child));
          Fill(node, child, depth + 1);
        }
        break;
      }
      case ContentKind::kChildren: {
        Word children = depth < options_.max_depth
                            ? SampleWord(model.regex, rng_, options_.sampling)
                            : MinimalWord(model.regex);
        // Unordered mode simulates data-centric XML: the ground-truth
        // schema constrains what appears, not in which order.
        if (options_.unordered) rng_->Shuffle(&children);
        for (Symbol child : children) {
          XmlElement* node = element->AddChild(alphabet_.Name(child));
          Fill(node, child, depth + 1);
        }
        break;
      }
    }
  }

 private:
  void AddAttributes(XmlElement* element, Symbol symbol) {
    auto it = dtd_.attributes.find(symbol);
    if (it == dtd_.attributes.end()) return;
    for (const auto& def : it->second) {
      if (def.default_decl == "#REQUIRED" || rng_->Bernoulli(0.5)) {
        const auto value = static_cast<int64_t>(rng_->NextBelow(100));
        element->AddAttribute(def.name, Numbered("v", value));
      }
    }
  }

  const Dtd& dtd_;
  const Alphabet& alphabet_;
  Rng* rng_;
  XmlGenOptions options_;
};

}  // namespace

Word MinimalWord(const ReRef& re) {
  Word out;
  EmitMinimal(re, &out);
  return out;
}

Result<XmlDocument> GenerateDocument(const Dtd& dtd, const Alphabet& alphabet,
                                     Rng* rng, const XmlGenOptions& options) {
  if (dtd.root == kInvalidSymbol) {
    return Status::InvalidArgument("DTD has no root element");
  }
  if (dtd.elements.count(dtd.root) == 0) {
    return Status::InvalidArgument("DTD root element is not declared");
  }
  XmlDocument doc;
  doc.root = std::make_unique<XmlElement>(alphabet.Name(dtd.root));
  Generator generator(dtd, alphabet, rng, options);
  generator.Fill(doc.root.get(), dtd.root, 0);
  return doc;
}

}  // namespace condtd
