// Fuzz target: DecodeXmlEntities. Regression corpus covers the numeric
// character-reference bugs fixed alongside this harness (64-bit overflow
// in the digit accumulator, &#; / &#x; accepted as NUL, astral code
// points truncated to 3-byte UTF-8, surrogate code points emitted).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "xml/sax.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 65536) return 0;
  std::string_view raw(reinterpret_cast<const char*>(data), size);
  std::string decoded;
  condtd::Status status = condtd::DecodeXmlEntities(raw, &decoded);
  if (status.ok()) {
    // Decoded output must never contain NUL or UTF-16 surrogate
    // encodings (0xED 0xA0..0xBF lead): both are forbidden XML
    // characters that earlier versions let through.
    for (size_t i = 0; i < decoded.size(); ++i) {
      unsigned char c = static_cast<unsigned char>(decoded[i]);
      if (c == 0) __builtin_trap();
      if (c == 0xED && i + 1 < decoded.size() &&
          static_cast<unsigned char>(decoded[i + 1]) >= 0xA0) {
        __builtin_trap();
      }
    }
  }
  return 0;
}
