#include "xml/sax.h"

#include <cstdint>

#include "base/strings.h"
#include "base/swar.h"
#include "obs/metrics.h"

namespace condtd {

namespace {

// Shared SWAR char-class table: one L1 load per byte instead of a
// compare chain, and the name alphabet stays ASCII-only by
// construction (locale-aware <ctype.h> calls are far too slow here).
inline bool IsNameStartChar(char c) { return swar::IsNameStart(c); }

}  // namespace

Status DecodeXmlEntities(std::string_view raw, std::string* out) {
  // Fast path: entity-free runs (the overwhelmingly common case for
  // both character data and attribute values) bulk-append instead of
  // copying byte by byte. The '&' scan is word-at-a-time (swar::FindAmp)
  // and each named entity resolves with one unaligned load + masked
  // compare (swar::MatchNamedEntity) instead of a find(';') plus up to
  // five string comparisons.
  size_t first_amp = swar::FindAmp(raw, 0);
  if (first_amp == swar::kNpos) {
    out->append(raw);
    return Status::OK();
  }
  out->reserve(out->size() + raw.size());
  out->append(raw.substr(0, first_amp));
  for (size_t i = first_amp; i < raw.size();) {
    if (raw[i] != '&') {
      size_t amp = swar::FindAmp(raw, i);
      if (amp == swar::kNpos) amp = raw.size();
      out->append(raw.substr(i, amp - i));
      i = amp;
      continue;
    }
    swar::EntityMatch named = swar::MatchNamedEntity(raw, i);
    if (named.length != 0) {
      *out += named.replacement;
      i += named.length;
      continue;
    }
    // Slow path: numeric references, unknown entities, malformed input.
    // MatchNamedEntity is exhaustive over the five named forms, so the
    // body between '&' and ';' here is never one of them.
    size_t end = swar::FindByte(raw, i, ';');
    if (end == swar::kNpos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view entity = raw.substr(i + 1, end - i - 1);
    if (!entity.empty() && entity[0] == '#') {
      // Numeric character reference. The accumulator is 64-bit with an
      // early range bail-out so adversarial digit strings
      // (&#99999999999999999999;) cannot overflow into undefined
      // behavior, and the digit loop must consume at least one digit
      // (&#; and &#x; are malformed).
      int64_t code = 0;
      bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      size_t digit_start = hex ? 2 : 1;
      if (digit_start >= entity.size()) {
        return Status::ParseError("bad character reference &" +
                                  std::string(entity) + ";");
      }
      for (size_t j = digit_start; j < entity.size(); ++j) {
        char c = entity[j];
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (hex && c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (hex && c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          return Status::ParseError("bad character reference &" +
                                    std::string(entity) + ";");
        }
        code = code * (hex ? 16 : 10) + digit;
        if (code > 0x10FFFF) {
          return Status::ParseError("character reference &" +
                                    std::string(entity) +
                                    "; is out of range");
        }
      }
      // Reject code points XML forbids: NUL, the UTF-16 surrogate block
      // (not scalar values; encoding them would produce CESU-8 garbage).
      if (code == 0 || (code >= 0xD800 && code <= 0xDFFF)) {
        return Status::ParseError("character reference &" +
                                  std::string(entity) +
                                  "; is not a valid XML character");
      }
      // Encode as UTF-8 (1-4 bytes).
      if (code < 0x80) {
        *out += static_cast<char>(code);
      } else if (code < 0x800) {
        *out += static_cast<char>(0xC0 | (code >> 6));
        *out += static_cast<char>(0x80 | (code & 0x3F));
      } else if (code < 0x10000) {
        *out += static_cast<char>(0xE0 | (code >> 12));
        *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        *out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        *out += static_cast<char>(0xF0 | (code >> 18));
        *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        *out += static_cast<char>(0x80 | (code & 0x3F));
      }
    } else {
      // Unknown entity (e.g. from an unresolved DTD): keep verbatim so
      // noisy real-world data does not abort parsing.
      *out += '&';
      *out += entity;
      *out += ';';
    }
    i = end + 1;
  }
  return Status::OK();
}

void SaxLexer::PublishCounters() {
  auto publish = [](obs::Counter counter, int64_t* count) {
    if (*count != 0) obs::CounterAdd(counter, *count);
    *count = 0;
  };
  publish(obs::Counter::kStartTags, &start_tags_);
  publish(obs::Counter::kAttributesSeen, &attributes_seen_);
  publish(obs::Counter::kTextEvents, &text_events_);
  publish(obs::Counter::kEntityDecodes, &entity_decodes_);
}

Result<SaxEvent> SaxLexer::Next() {
  while (pos_ < input_.size()) {
    size_t start = pos_;
    if (input_[pos_] != '<') {
      // One SWAR pass finds whichever of '<' (end of run) or '&'
      // (entity, forces a decode) comes first — the old code scanned
      // the run twice (find('<') then find('&')).
      size_t stop = swar::FindEither(input_, pos_, '<', '&');
      const bool has_entity = stop != swar::kNpos && input_[stop] == '&';
      size_t lt = stop;
      if (has_entity) lt = swar::FindByte(input_, stop, '<');
      if (lt == swar::kNpos) lt = input_.size();
      std::string_view raw = input_.substr(pos_, lt - pos_);
      pos_ = lt;
      SaxEvent event;
      event.kind = SaxEventKind::kText;
      event.offset = start;
      if (!has_entity) {
        // Zero-copy path: no entities, the view is the text.
        if (StripWhitespace(raw).empty()) continue;
        event.text = raw;
        ++text_events_;
        return event;
      }
      text_scratch_.clear();
      {
        obs::StageSpan span(obs::Stage::kEntityDecode);
        ++entity_decodes_;
        CONDTD_RETURN_IF_ERROR(DecodeXmlEntities(raw, &text_scratch_));
      }
      if (StripWhitespace(text_scratch_).empty()) continue;
      event.text = text_scratch_;
      ++text_events_;
      return event;
    }
    // '<' dispatch. Ordinary tags (next char is a name char or '/') are
    // by far the common case — skip the markup-declaration probes.
    char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (next != '!' && next != '?') return LexTag();
    if (StartsWith(input_.substr(pos_), "<!--")) {
      size_t end = input_.find("-->", pos_ + 4);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated comment at offset " +
                                  std::to_string(pos_));
      }
      pos_ = end + 3;
      continue;
    }
    if (StartsWith(input_.substr(pos_), "<![CDATA[")) {
      size_t end = input_.find("]]>", pos_ + 9);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated CDATA at offset " +
                                  std::to_string(pos_));
      }
      SaxEvent event;
      event.kind = SaxEventKind::kText;
      event.offset = start;
      event.text = input_.substr(pos_ + 9, end - pos_ - 9);
      pos_ = end + 3;
      if (StripWhitespace(event.text).empty()) continue;
      ++text_events_;
      return event;
    }
    if (StartsWith(input_.substr(pos_), "<?")) {
      size_t end = input_.find("?>", pos_ + 2);
      if (end == std::string_view::npos) {
        return Status::ParseError(
            "unterminated processing instruction at offset " +
            std::to_string(pos_));
      }
      pos_ = end + 2;
      continue;
    }
    if (StartsWith(input_.substr(pos_), "<!DOCTYPE")) {
      size_t i = pos_ + 9;
      int bracket_depth = 0;
      while (i < input_.size()) {
        char c = input_[i];
        if (c == '[') {
          ++bracket_depth;
        } else if (c == ']') {
          --bracket_depth;
        } else if (c == '>' && bracket_depth == 0) {
          break;
        }
        ++i;
      }
      if (i >= input_.size()) {
        return Status::ParseError("unterminated DOCTYPE at offset " +
                                  std::to_string(pos_));
      }
      SaxEvent event;
      event.kind = SaxEventKind::kDoctype;
      event.offset = start;
      event.text = StripWhitespace(input_.substr(pos_ + 9, i - pos_ - 9));
      pos_ = i + 1;
      return event;
    }
    return LexTag();
  }
  SaxEvent event;
  event.kind = SaxEventKind::kEof;
  event.offset = pos_;
  return event;
}

Result<SaxEvent> SaxLexer::LexTag() {
  SaxEvent event;
  event.offset = pos_;
  ++pos_;  // consume '<'
  bool closing = false;
  if (pos_ < input_.size() && input_[pos_] == '/') {
    closing = true;
    ++pos_;
  }
  if (pos_ >= input_.size() || !IsNameStartChar(input_[pos_])) {
    return Status::ParseError("malformed tag at offset " +
                              std::to_string(event.offset));
  }
  size_t name_start = pos_;
  pos_ = swar::FindNameEnd(input_, pos_);
  event.name = input_.substr(name_start, pos_ - name_start);
  event.kind =
      closing ? SaxEventKind::kEndElement : SaxEventKind::kStartElement;
  attributes_.clear();
  scratch_slots_.clear();
  attr_scratch_.clear();

  auto finish = [&]() -> Result<SaxEvent> {
    // Patch decoded values now that scratch has stopped reallocating.
    for (const auto& [index, slot] : scratch_slots_) {
      attributes_[index].value =
          std::string_view(attr_scratch_).substr(slot.first, slot.second);
    }
    if (event.kind == SaxEventKind::kStartElement) {
      ++start_tags_;
      attributes_seen_ += static_cast<int64_t>(attributes_.size());
    }
    return event;
  };

  while (true) {
    pos_ = swar::SkipSpace(input_, pos_);
    if (pos_ >= input_.size()) {
      return Status::ParseError("unterminated tag <" +
                                std::string(event.name) + ">");
    }
    char c = input_[pos_];
    if (c == '>') {
      ++pos_;
      return finish();
    }
    if (c == '/') {
      if (pos_ + 1 >= input_.size() || input_[pos_ + 1] != '>') {
        return Status::ParseError("malformed tag end in <" +
                                  std::string(event.name) + ">");
      }
      event.self_closing = true;
      pos_ += 2;
      return finish();
    }
    if (closing || !IsNameStartChar(c)) {
      return Status::ParseError("unexpected character '" +
                                std::string(1, c) + "' in tag <" +
                                std::string(event.name) + ">");
    }
    size_t attr_start = pos_;
    pos_ = swar::FindNameEnd(input_, pos_);
    std::string_view key = input_.substr(attr_start, pos_ - attr_start);
    pos_ = swar::SkipSpace(input_, pos_);
    if (pos_ >= input_.size() || input_[pos_] != '=') {
      // Permissive: attribute without value (common in noisy HTML-ish
      // data); record it with an empty value.
      attributes_.push_back({key, std::string_view()});
      continue;
    }
    ++pos_;
    pos_ = swar::SkipSpace(input_, pos_);
    if (pos_ >= input_.size() ||
        (input_[pos_] != '"' && input_[pos_] != '\'')) {
      return Status::ParseError("attribute '" + std::string(key) +
                                "' of <" + std::string(event.name) +
                                "> has an unquoted value");
    }
    char quote = input_[pos_++];
    size_t value_start = pos_;
    // One pass: the closing quote ends the value; an earlier '&' means
    // the value needs entity decoding (the quote still ends it).
    size_t hit = swar::FindEither(input_, pos_, quote, '&');
    size_t value_end =
        (hit != swar::kNpos && input_[hit] == '&')
            ? swar::FindByte(input_, hit, quote)
            : hit;
    if (value_end == swar::kNpos) {
      return Status::ParseError("unterminated attribute value for '" +
                                std::string(key) + "'");
    }
    std::string_view raw =
        input_.substr(value_start, value_end - value_start);
    pos_ = value_end + 1;
    if (hit == value_end) {
      attributes_.push_back({key, raw});
      continue;
    }
    size_t scratch_start = attr_scratch_.size();
    {
      obs::StageSpan span(obs::Stage::kEntityDecode);
      ++entity_decodes_;
      CONDTD_RETURN_IF_ERROR(DecodeXmlEntities(raw, &attr_scratch_));
    }
    scratch_slots_.emplace_back(
        attributes_.size(),
        std::make_pair(scratch_start, attr_scratch_.size() - scratch_start));
    attributes_.push_back({key, std::string_view()});
  }
}

}  // namespace condtd
