#include "util/compression.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace jig {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
// Hash-chain walk bound for LzLevel::kDefault.  Deep enough to find the
// long header repeats capture data is full of, small enough that worst-case
// input degrades to O(n * 32) rather than O(n * window).
constexpr int kDefaultChainDepth = 32;
// Sentinel for "no previous position with this hash".
constexpr std::uint32_t kNilPos = 0xFFFFFFFFu;

std::uint32_t Hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  PutU16(out, static_cast<std::uint16_t>(v));
  PutU16(out, static_cast<std::uint16_t>(v >> 16));
}

// Flushes pending literals as runs of <=128 bytes.
void FlushLiterals(std::vector<std::uint8_t>& out, const std::uint8_t* base,
                   std::size_t start, std::size_t end) {
  while (start < end) {
    const std::size_t run = std::min<std::size_t>(end - start, 0x80);
    out.push_back(static_cast<std::uint8_t>(run - 1));
    out.insert(out.end(), base + start, base + start + run);
    start += run;
  }
}

std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + len, 8);
    std::memcpy(&vb, b + len, 8);
    if (va != vb) {
      return len + static_cast<std::size_t>(std::countr_zero(va ^ vb) >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// The decoder copies in fixed 16-byte chunks: a memcpy of a constant size
// compiles to one vector load and store.
constexpr std::size_t kCopyChunk = 16;
constexpr std::size_t kCopySlack = kCopyChunk - 1;

std::size_t RoundUpToChunk(std::size_t n) {
  return (n + kCopyChunk - 1) & ~(kCopyChunk - 1);
}

// Copies `n` bytes as whole chunks, so it reads and writes up to
// RoundUpToChunk(n) bytes.  Chunk k reads [src + 16k, src + 16k + 16) after
// chunks 0..k-1 were stored, which keeps forward-overlapping copies exact
// as long as dst - src >= 16.
void CopyChunks(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; i += kCopyChunk) {
    std::memcpy(dst + i, src + i, kCopyChunk);
  }
}

}  // namespace

std::vector<std::uint8_t> LzCompress(std::span<const std::uint8_t> raw,
                                     LzLevel level) {
  std::vector<std::uint8_t> out;
  LzCompress(raw, level, out);
  return out;
}

void LzCompress(std::span<const std::uint8_t> raw, LzLevel level,
                std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(raw.size() / 2 + 16);
  PutU32(out, static_cast<std::uint32_t>(raw.size()));

  const std::uint8_t* data = raw.data();
  const std::size_t n = raw.size();
  const int max_chain = level == LzLevel::kFast ? 1 : kDefaultChainDepth;

  // head[h] is the most recent position hashing to h; prev[pos] links each
  // inserted position to the previous one with the same hash, forming the
  // chain the finder walks newest-first (so equal-length ties resolve to
  // the nearest, i.e. smallest, distance).  Both tables are per-thread
  // scratch kept across calls, so a writer compressing block after block
  // does not allocate them for every block.  prev needs no clearing — a
  // position is inserted before any later position can reach it.
  thread_local std::vector<std::uint32_t> head;
  thread_local std::vector<std::uint32_t> prev;
  head.assign(kHashSize, kNilPos);
  if (prev.size() < n) prev.resize(n);

  const auto insert = [&](std::size_t i) {
    const std::uint32_t h = Hash4(data + i);
    prev[i] = head[h];
    head[h] = static_cast<std::uint32_t>(i);
  };

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos + kLzMinMatch <= n) {
    std::uint32_t cand = head[Hash4(data + pos)];
    insert(pos);

    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    const std::size_t limit = std::min(n - pos, kLzMaxMatch);
    for (int depth = 0; depth < max_chain && cand != kNilPos; ++depth) {
      const std::size_t dist = pos - cand;
      if (dist > kLzWindow) break;  // chain positions only get older
      // Cheap reject: a longer match must agree at the first byte the
      // current best got wrong.
      if (best_len == 0 || data[cand + best_len] == data[pos + best_len]) {
        const std::size_t len = MatchLength(data + cand, data + pos, limit);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == limit) break;
        }
      }
      cand = prev[cand];
    }

    if (best_len >= kLzMinMatch) {
      FlushLiterals(out, data, literal_start, pos);
      out.push_back(static_cast<std::uint8_t>(
          0x80u | static_cast<std::uint8_t>(best_len - kLzMinMatch)));
      PutU16(out, static_cast<std::uint16_t>(best_dist));
      // Insert hashes inside the match so later data can reference it.
      const std::size_t stop = std::min(pos + best_len, n - kLzMinMatch + 1);
      for (std::size_t i = pos + 1; i < stop; ++i) insert(i);
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  FlushLiterals(out, data, literal_start, n);
}

std::vector<std::uint8_t> LzDecompress(std::span<const std::uint8_t> packed) {
  if (packed.size() < 4) {
    throw LzTruncatedError("LzDecompress: short header");
  }
  const std::uint32_t raw_size = static_cast<std::uint32_t>(packed[0]) |
                                 (static_cast<std::uint32_t>(packed[1]) << 8) |
                                 (static_cast<std::uint32_t>(packed[2]) << 16) |
                                 (static_cast<std::uint32_t>(packed[3]) << 24);

  // A match token (3 bytes) emits at most kLzMaxMatch bytes, so no
  // conforming stream expands beyond kLzMaxMatch per input byte; a declared
  // raw size past that is self-inconsistent.  Rejecting it here keeps a
  // hostile 4-byte header from demanding a 4 GiB allocation (std::bad_alloc
  // is not part of the error taxonomy) and bounds the buffer sized below at
  // kLzMaxMatch times the input.
  if (raw_size > (packed.size() - 4) * kLzMaxMatch) {
    throw LzCorruptError("LzDecompress: declared raw size unreachable");
  }
  // The whole output up front, plus slack for the 16-byte copies: every
  // token is bounds-checked against raw_size before it is copied, so a
  // chunk can overrun the token's end by at most 15 bytes, which later
  // tokens overwrite or the final resize trims.
  std::vector<std::uint8_t> out(std::size_t{raw_size} + kCopySlack);
  std::uint8_t* const base = out.data();
  std::size_t op = 0;  // bytes decoded so far
  const std::uint8_t* const in = packed.data();
  std::size_t pos = 4;
  const std::size_t n = packed.size();
  while (pos < n) {
    const std::uint8_t control = in[pos++];
    if (control < 0x80) {
      const std::size_t run = static_cast<std::size_t>(control) + 1;
      if (pos + run > n) {
        throw LzTruncatedError("LzDecompress: literal run truncated");
      }
      if (op + run > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      // Chunked only while the input holds the chunks' overrun too: a run
      // that ends at the very end of the input is copied exactly.
      if (n - pos >= RoundUpToChunk(run)) {
        CopyChunks(base + op, in + pos, run);
      } else {
        std::memcpy(base + op, in + pos, run);
      }
      op += run;
      pos += run;
    } else {
      const std::size_t len = (control & 0x7Fu) + kLzMinMatch;
      if (pos + 2 > n) {
        throw LzTruncatedError("LzDecompress: match token truncated");
      }
      const std::size_t dist = static_cast<std::size_t>(in[pos]) |
                               (static_cast<std::size_t>(in[pos + 1]) << 8);
      pos += 2;
      if (dist == 0 || dist > op) {
        throw LzCorruptError("LzDecompress: bad match distance");
      }
      if (op + len > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      std::uint8_t* const dst = base + op;
      const std::uint8_t* const src = dst - dist;
      if (dist >= kCopyChunk) {
        // Each chunk reads only bytes written before it starts (they lie at
        // least one chunk behind), so an overlapping match with dist >= 16
        // still repeats exactly as the byte-at-a-time definition does.
        CopyChunks(dst, src, len);
      } else {
        // dist < 16: the match repeats a period shorter than a chunk, so
        // the copy has to see its own output byte by byte.
        for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
      }
      op += len;
    }
  }
  if (op != raw_size) {
    throw LzTruncatedError(
        "LzDecompress: stream ends before declared raw size");
  }
  out.resize(raw_size);
  return out;
}

}  // namespace jig
