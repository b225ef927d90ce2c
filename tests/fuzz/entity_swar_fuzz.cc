// Differential fuzz target for the SWAR entity-decoder fast path:
// DecodeXmlEntities (word-at-a-time '&' scan + unaligned-load named-
// entity matching) against a byte-at-a-time reference decoder with the
// exact documented semantics. Any divergence in status or output traps.
//
// The seed corpus stresses what the SWAR path changes: mixed multi-byte
// UTF-8 around entities, truncated references, and '&' at the buffer
// tail (the memcpy-guarded loads must not read past the end — under
// ASan/libFuzzer the input buffer edge stands in for an mmap page
// boundary).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "xml/sax.h"

namespace {

/// Reference decoder: the pre-SWAR specification, one byte at a time.
/// Mirrors DecodeXmlEntities' contract — five named entities, numeric
/// references with 64-bit accumulator and range/NUL/surrogate checks,
/// unknown entities kept verbatim, "unterminated entity reference" when
/// no ';' follows a '&'.
bool ReferenceDecode(std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      *out += raw[i++];
      continue;
    }
    size_t end = raw.find(';', i);
    if (end == std::string_view::npos) return false;
    std::string_view entity = raw.substr(i + 1, end - i - 1);
    if (entity == "amp") {
      *out += '&';
    } else if (entity == "lt") {
      *out += '<';
    } else if (entity == "gt") {
      *out += '>';
    } else if (entity == "apos") {
      *out += '\'';
    } else if (entity == "quot") {
      *out += '"';
    } else if (!entity.empty() && entity[0] == '#') {
      int64_t code = 0;
      bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      size_t digit_start = hex ? 2 : 1;
      if (digit_start >= entity.size()) return false;
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
          return false;
        }
        code = code * (hex ? 16 : 10) + digit;
        if (code > 0x10FFFF) return false;
      }
      if (code == 0 || (code >= 0xD800 && code <= 0xDFFF)) return false;
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
      *out += '&';
      *out += entity;
      *out += ';';
    }
    i = end + 1;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 65536) return 0;
  std::string_view raw(reinterpret_cast<const char*>(data), size);

  std::string fast;
  condtd::Status status = condtd::DecodeXmlEntities(raw, &fast);

  std::string reference;
  bool reference_ok = ReferenceDecode(raw, &reference);

  if (status.ok() != reference_ok) __builtin_trap();
  if (status.ok() && fast != reference) __builtin_trap();
  return 0;
}
