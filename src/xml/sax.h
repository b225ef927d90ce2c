#ifndef CONDTD_XML_SAX_H_
#define CONDTD_XML_SAX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace condtd {

/// Event kinds produced by the streaming lexer. Comments and processing
/// instructions are consumed silently; pure-whitespace character runs
/// are skipped (they never constitute significant text).
enum class SaxEventKind {
  kStartElement,  ///< <name attr="v" ...> ; self_closing for <name/>
  kEndElement,    ///< </name>
  kText,          ///< significant character data or CDATA content
  kDoctype,       ///< raw body of <!DOCTYPE ...>
  kEof,
};

/// One attribute of a start-element event. Both views borrow: the key
/// always points into the input buffer; the value points into the input
/// when it needed no entity decoding and into lexer scratch otherwise.
struct SaxAttribute {
  std::string_view key;
  std::string_view value;
};

/// One lexer event. Every view is valid only until the next call to
/// `SaxLexer::Next()` — consumers fold the event into their own
/// summaries instead of retaining it (that is the point: no DOM, no
/// per-node allocation).
struct SaxEvent {
  SaxEventKind kind = SaxEventKind::kEof;
  /// Start/end element name — a view into the input buffer.
  std::string_view name;
  /// Character data (entities decoded) or DOCTYPE body.
  std::string_view text;
  bool self_closing = false;
  size_t offset = 0;  ///< byte offset for error messages
};

/// Deepest element nesting a document may have. Self-closing elements
/// do not count. Both consumers of `SaxLexer` events enforce it with the
/// same message ("element nesting deeper than 10000"): the DOM parser
/// because element trees are destroyed recursively, the streaming fold
/// because each open element holds a frame. The cap is far above real
/// documents but keeps a hostile input from forcing unbounded stack
/// depth or memory.
inline constexpr size_t kMaxElementDepth = 10000;

/// Appends `raw` to `out` with the predefined (&amp; &lt; &gt; &apos;
/// &quot;) and numeric character entities decoded; unknown entities are
/// kept verbatim so noisy real-world data does not abort parsing.
/// Entity-free input takes a bulk-append fast path (no per-byte loop).
Status DecodeXmlEntities(std::string_view raw, std::string* out);

/// Streaming (SAX-style) pull lexer over an in-memory XML document: the
/// one XML tokenizer. Both the DOM parser (xml/parser.h) and the
/// streaming fold (infer/streaming.h) read its events. It handles tags,
/// single/double-quoted attributes, comments, PIs, CDATA, DOCTYPE with
/// internal subset, predefined + numeric entities and valueless
/// attributes. Names, attribute values and entity-free text are
/// returned as views into the raw buffer — nothing is copied unless an
/// entity must be decoded, and the decode scratch is reused across
/// events so a whole document lexes with O(1) allocations.
///
/// The lexer counts its events (`start_tags`, `attributes_seen`,
/// `text_events`, `entity_decodes`) in plain members and publishes them
/// to the obs registry once per document — on `Reset`, on
/// `PublishCounters` and in its destructor — so lexing pays no atomic
/// add per event.
class SaxLexer {
 public:
  SaxLexer() = default;
  explicit SaxLexer(std::string_view input) : input_(input) {}
  ~SaxLexer() { PublishCounters(); }

  /// A copy would publish the same counts twice.
  SaxLexer(const SaxLexer&) = delete;
  SaxLexer& operator=(const SaxLexer&) = delete;

  /// Rebinds the lexer to a new document, keeping scratch capacity.
  /// Ingestion drivers reuse one lexer across a whole corpus so that
  /// steady-state lexing performs no per-document allocation. Publishes
  /// the previous document's counts first.
  void Reset(std::string_view input) {
    PublishCounters();
    input_ = input;
    pos_ = 0;
    attributes_.clear();
    scratch_slots_.clear();
    attr_scratch_.clear();
    text_scratch_.clear();
  }

  /// Produces the next event, or a ParseError status. Views inside the
  /// returned event (and `attributes()`) stay valid until the next call.
  Result<SaxEvent> Next();

  /// Attributes of the most recent kStartElement event.
  const std::vector<SaxAttribute>& attributes() const { return attributes_; }

  size_t offset() const { return pos_; }

  /// Adds the events counted since the last call to the obs registry.
  /// Callers that end a document without a `Reset` (a fold that stops
  /// at an error) call it so a snapshot taken between documents is
  /// complete.
  void PublishCounters();

 private:
  Result<SaxEvent> LexTag();

  std::string_view input_;
  size_t pos_ = 0;
  std::vector<SaxAttribute> attributes_;
  /// Decoded-value scratch for the current tag. Values that needed
  /// decoding are patched to views into this buffer once the tag is
  /// fully lexed (appending may reallocate mid-tag).
  std::string attr_scratch_;
  /// (attribute index, offset, length) of values living in scratch.
  std::vector<std::pair<size_t, std::pair<size_t, size_t>>> scratch_slots_;
  /// Decoded-text scratch, reused across text events.
  std::string text_scratch_;
  /// Events counted since the last PublishCounters.
  int64_t start_tags_ = 0;
  int64_t attributes_seen_ = 0;
  int64_t text_events_ = 0;
  int64_t entity_decodes_ = 0;
};

}  // namespace condtd

#endif  // CONDTD_XML_SAX_H_
