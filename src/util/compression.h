// Byte-oriented LZ compression for trace storage.
//
// The paper's jigdump compresses capture blocks with LZO before shipping them
// over NFS, because storage and I/O are the monitor platform's bottlenecks
// (Section 3.3).  LZO is not available offline, so this is a from-scratch
// LZ77-style codec with the same design point: cheap, byte-oriented, good
// enough on highly repetitive capture data (802.11 headers repeat heavily).
//
// Format (little-endian):
//   [u32 raw_size] then a token stream:
//     control byte C:
//       C < 0x80  : literal run of C+1 bytes follows
//       C >= 0x80 : match; length = (C & 0x7F) + kMinMatch,
//                   followed by u16 distance (1-based, <= 64 KiB window)
// The token format is fixed — every LzLevel emits it, and LzDecompress
// accepts any conforming stream regardless of which level (or which past
// version of the compressor) produced it.
//
// Decompress validates all offsets.  Malformed input throws LzTruncatedError
// when the stream simply ends too early (cut-off header, token, or literal
// run — the shape a torn write produces) and LzCorruptError when the bytes
// present are self-inconsistent (invalid match distance, output overrunning
// the declared raw size).  Both derive from LzError -> std::runtime_error,
// so existing catch sites keep working; the trace layer maps the split onto
// its TraceTruncatedError/TraceCorruptError taxonomy.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace jig {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 0x7F + kLzMinMatch;
constexpr std::size_t kLzWindow = 65535;

// Compression effort.  Both levels emit the same token format; they differ
// only in how hard the match finder searches.
enum class LzLevel {
  // Single hash-table probe per position (depth-1 chain walk).  For live
  // writers flushing blocks on the capture path, where latency beats ratio.
  kFast,
  // Bounded hash-chain walk (several candidates per position, longest match
  // wins).  Better ratio at modest extra cost; the batch default.
  kDefault,
};

class LzError : public std::runtime_error {
 public:
  explicit LzError(const std::string& what) : std::runtime_error(what) {}
};

// The compressed stream ends before the structure it promised is complete.
class LzTruncatedError : public LzError {
 public:
  explicit LzTruncatedError(const std::string& what) : LzError(what) {}
};

// The bytes present contradict themselves (bad distance, size overrun).
class LzCorruptError : public LzError {
 public:
  explicit LzCorruptError(const std::string& what) : LzError(what) {}
};

std::vector<std::uint8_t> LzCompress(std::span<const std::uint8_t> raw,
                                     LzLevel level = LzLevel::kDefault);
// The same stream into `out` (cleared first), so a writer that compresses
// block after block can keep one output buffer.
void LzCompress(std::span<const std::uint8_t> raw, LzLevel level,
                std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> LzDecompress(std::span<const std::uint8_t> packed);

}  // namespace jig
