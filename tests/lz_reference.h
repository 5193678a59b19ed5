// Byte-at-a-time reference decoder for the LZ token format
// (src/util/compression.h), kept for differential tests and the
// fuzz_lz_decode harness.
//
// This is the decoder the library shipped before LzDecompress switched to a
// pre-sized buffer with 16-byte copies: it appends every output byte with
// push_back and makes the same checks in the same order.  For any input the
// two must return the same bytes or throw the same error class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/compression.h"

namespace jig::testing {

inline std::vector<std::uint8_t> LzDecompressReference(
    std::span<const std::uint8_t> packed) {
  if (packed.size() < 4) {
    throw LzTruncatedError("LzDecompressReference: short header");
  }
  const std::uint32_t raw_size = static_cast<std::uint32_t>(packed[0]) |
                                 (static_cast<std::uint32_t>(packed[1]) << 8) |
                                 (static_cast<std::uint32_t>(packed[2]) << 16) |
                                 (static_cast<std::uint32_t>(packed[3]) << 24);
  if (raw_size > (packed.size() - 4) * kLzMaxMatch) {
    throw LzCorruptError("LzDecompressReference: declared raw size unreachable");
  }
  std::vector<std::uint8_t> out;
  std::size_t pos = 4;
  const std::size_t n = packed.size();
  while (pos < n) {
    const std::uint8_t control = packed[pos++];
    if (control < 0x80) {
      const std::size_t run = static_cast<std::size_t>(control) + 1;
      if (pos + run > n) {
        throw LzTruncatedError("LzDecompressReference: literal run truncated");
      }
      if (out.size() + run > raw_size) {
        throw LzCorruptError("LzDecompressReference: output exceeds raw size");
      }
      out.insert(out.end(), packed.begin() + pos, packed.begin() + pos + run);
      pos += run;
    } else {
      const std::size_t len = (control & 0x7Fu) + kLzMinMatch;
      if (pos + 2 > n) {
        throw LzTruncatedError("LzDecompressReference: match token truncated");
      }
      const std::size_t dist = static_cast<std::size_t>(packed[pos]) |
                               (static_cast<std::size_t>(packed[pos + 1]) << 8);
      pos += 2;
      if (dist == 0 || dist > out.size()) {
        throw LzCorruptError("LzDecompressReference: bad match distance");
      }
      if (out.size() + len > raw_size) {
        throw LzCorruptError("LzDecompressReference: output exceeds raw size");
      }
      const std::size_t src = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
  }
  if (out.size() != raw_size) {
    throw LzTruncatedError("LzDecompressReference: stream ends early");
  }
  return out;
}

// What a decoder did with one input: the bytes, or which error class it
// threw (0 = none, 1 = LzTruncatedError, 2 = LzCorruptError).  Any other
// exception escapes, which the callers treat as a failure.
struct LzOutcome {
  int error = 0;
  std::vector<std::uint8_t> bytes;
  bool operator==(const LzOutcome&) const = default;
};

template <typename Decoder>
LzOutcome DecodeOutcome(Decoder&& decode, std::span<const std::uint8_t> in) {
  LzOutcome out;
  try {
    out.bytes = decode(in);
  } catch (const LzTruncatedError&) {
    out.error = 1;
  } catch (const LzCorruptError&) {
    out.error = 2;
  }
  return out;
}

}  // namespace jig::testing
