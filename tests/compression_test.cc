#include "util/compression.h"

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "lz_reference.h"
#include "util/rng.h"

namespace jig {
namespace {

Bytes RandomBytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBelow(alphabet));
  }
  return out;
}

TEST(Compression, EmptyRoundtrip) {
  const Bytes empty;
  const auto packed = LzCompress(empty);
  EXPECT_EQ(LzDecompress(packed), empty);
}

TEST(Compression, RepetitiveDataShrinks) {
  Bytes data(10000, 0xAB);
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() / 10);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, CaptureLikeDataShrinks) {
  // 802.11 captures repeat headers heavily: simulate with a repeating
  // 36-byte header + varying payload bytes.
  Bytes data;
  Rng rng(5);
  for (int frame = 0; frame < 200; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 20; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
    }
  }
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() * 2 / 3);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, IncompressibleDataSurvives) {
  const auto data = RandomBytes(4096, 99);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
  // Worst-case expansion is bounded (1 control byte per 128 literals + hdr).
  EXPECT_LT(packed.size(), data.size() + data.size() / 64 + 64);
}

TEST(Compression, OverlappingMatchRun) {
  // "abcabcabc..." forces overlapping match copies (dist < len).
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back("abc"[i % 3]);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, RejectsTruncatedHeader) {
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
}

TEST(Compression, RejectsCorruptStream) {
  Bytes data(1000, 0x77);
  auto packed = LzCompress(data);
  // Declare a larger raw size than the stream produces.
  packed[0] ^= 0xFF;
  EXPECT_THROW(LzDecompress(packed), std::runtime_error);
}

TEST(Compression, RejectsBadDistance) {
  // Hand-craft: raw_size=4, match token with distance beyond output.
  Bytes bad = {4, 0, 0, 0, 0x80, 9, 0};
  EXPECT_THROW(LzDecompress(bad), std::runtime_error);
}

class CompressionRoundtripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CompressionRoundtripTest, Roundtrip) {
  const auto [size, alphabet] = GetParam();
  const auto data = RandomBytes(size, size * 131 + alphabet, alphabet);
  EXPECT_EQ(LzDecompress(LzCompress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, CompressionRoundtripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 15, 16, 17, 100, 1000,
                                         65535, 65536, 200000),
                       ::testing::Values(2, 16, 256)));

// ---- compression levels ---------------------------------------------------

TEST(CompressionLevels, FastLevelRoundtripsEveryShape) {
  for (std::size_t size : {1u, 5u, 100u, 65536u, 200000u}) {
    for (int alphabet : {2, 16, 256}) {
      const auto data = RandomBytes(size, size * 733 + alphabet, alphabet);
      EXPECT_EQ(LzDecompress(LzCompress(data, LzLevel::kFast)), data)
          << "size " << size << " alphabet " << alphabet;
    }
  }
}

TEST(CompressionLevels, LevelsShareOneTokenFormat) {
  // Both levels feed the same decoder and reproduce the same bytes; the
  // deeper finder only ever finds better matches, never a new format.
  Bytes data;
  Rng rng(17);
  for (int frame = 0; frame < 300; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 24; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(64)));
    }
  }
  const auto fast = LzCompress(data, LzLevel::kFast);
  const auto deep = LzCompress(data, LzLevel::kDefault);
  EXPECT_EQ(LzDecompress(fast), data);
  EXPECT_EQ(LzDecompress(deep), data);
  EXPECT_LE(deep.size(), fast.size());
}

TEST(CompressionLevels, CompressionIsDeterministicPerLevel) {
  const auto data = RandomBytes(50000, 4242, 32);
  EXPECT_EQ(LzCompress(data, LzLevel::kFast),
            LzCompress(data, LzLevel::kFast));
  EXPECT_EQ(LzCompress(data, LzLevel::kDefault),
            LzCompress(data, LzLevel::kDefault));
}

TEST(CompressionLevels, DecodesLegacyGreedyFixture) {
  // Hand-assembled stream in the frozen on-disk token format (the bytes
  // the original greedy matcher emitted for "abcdabcd"): a 4-literal run
  // then a length-4 match at distance 4.  Blocks written before the
  // hash-chain finder must keep decoding forever.
  const Bytes fixture = {8,    0,   0,   0,    // raw_size = 8
                         0x03, 'a', 'b', 'c', 'd',
                         0x80, 4,   0};        // match len 4, dist 4
  const Bytes expected = {'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'};
  EXPECT_EQ(LzDecompress(fixture), expected);
}

// ---- error taxonomy -------------------------------------------------------
//
// Truncation (more bytes could repair it) and corruption (no bytes ever
// could) surface as distinct types so the trace layer can map them onto
// TraceTruncatedError / TraceCorruptError.

TEST(CompressionErrors, ShortHeaderIsTruncated) {
  EXPECT_THROW(LzDecompress(Bytes{}), LzTruncatedError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzTruncatedError);
}

TEST(CompressionErrors, CutLiteralRunIsTruncated) {
  const Bytes cut = {4, 0, 0, 0, 0x03, 'a'};  // run promises 4, holds 1
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, CutMatchTokenIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                     0x80, 4};  // one distance byte missing
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, ShortOutputIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd'};  // 4 of 8
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, BadDistanceIsCorrupt) {
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzCorruptError);
  const Bytes zero_dist = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                           0x80, 0, 0};
  EXPECT_THROW(LzDecompress(zero_dist), LzCorruptError);
}

TEST(CompressionErrors, OverlongOutputIsCorrupt) {
  // Declared raw size 4 but the stream produces 8: garbage, not a torn
  // write — waiting for more bytes cannot fix it.
  const Bytes overlong = {4, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                          0x80, 1, 0};
  EXPECT_THROW(LzDecompress(overlong), LzCorruptError);
}

TEST(CompressionErrors, BothKindsAreLzErrorsAndRuntimeErrors) {
  // Pre-taxonomy call sites caught std::runtime_error; that must keep
  // working.
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}),
               std::runtime_error);
}

// ---- differential: LzDecompress vs the byte-at-a-time reference ---------
//
// The decoder writes into a buffer sized up front with 16-byte copies; the
// reference appends byte by byte.  For every input both must return the
// same bytes or throw the same error class.

void ExpectSameOutcome(std::span<const std::uint8_t> in,
                       const std::string& what) {
  const auto got = testing::DecodeOutcome(
      [](std::span<const std::uint8_t> b) { return LzDecompress(b); }, in);
  const auto want =
      testing::DecodeOutcome(testing::LzDecompressReference, in);
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_TRUE(got.bytes == want.bytes) << what;
}

// A token stream in the frozen format, built token by token so the test
// controls distances, run lengths and where the stream ends.
class TokenStream {
 public:
  void Literal(const Bytes& bytes) {
    packed_.push_back(static_cast<std::uint8_t>(bytes.size() - 1));
    packed_.insert(packed_.end(), bytes.begin(), bytes.end());
    raw_ += bytes.size();
  }
  void Match(std::size_t len, std::size_t dist) {
    packed_.push_back(static_cast<std::uint8_t>(0x80 | (len - kLzMinMatch)));
    packed_.push_back(static_cast<std::uint8_t>(dist));
    packed_.push_back(static_cast<std::uint8_t>(dist >> 8));
    raw_ += len;
  }
  std::size_t raw() const { return raw_; }
  // The stream with `declared` as its raw size (default: what it decodes
  // to).
  Bytes Build(std::size_t declared) const {
    Bytes out = {static_cast<std::uint8_t>(declared),
                 static_cast<std::uint8_t>(declared >> 8),
                 static_cast<std::uint8_t>(declared >> 16),
                 static_cast<std::uint8_t>(declared >> 24)};
    out.insert(out.end(), packed_.begin(), packed_.end());
    return out;
  }
  Bytes Build() const { return Build(raw_); }

 private:
  Bytes packed_;
  std::size_t raw_ = 0;
};

TEST(CompressionDifferential, MatchesReferenceOnFuzzCorpus) {
  const std::filesystem::path dir = JIG_LZ_CORPUS_DIR;
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    const Bytes input((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    ++files;
    const std::string name = entry.path().filename().string();
    ExpectSameOutcome(input, name);
    // Every prefix (the torn-write shapes) and every single-bit flip.
    for (std::size_t cut = 0; cut < input.size(); ++cut) {
      ExpectSameOutcome({input.data(), cut}, name + " cut " +
                                                 std::to_string(cut));
    }
    for (std::size_t i = 0; i < input.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = input;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        ExpectSameOutcome(flipped, name + " flip " + std::to_string(i) +
                                       "." + std::to_string(bit));
      }
    }
  }
  EXPECT_GE(files, 4u);
}

TEST(CompressionDifferential, MatchesReferenceOnRandomTokenStreams) {
  Rng rng(20261019);
  for (int iter = 0; iter < 3000; ++iter) {
    TokenStream ts;
    const std::size_t tokens = 1 + rng.NextBelow(40);
    for (std::size_t t = 0; t < tokens; ++t) {
      if (ts.raw() == 0 || rng.NextBelow(3) == 0) {
        Bytes lit(1 + rng.NextBelow(128));
        for (auto& b : lit) b = static_cast<std::uint8_t>(rng.NextBelow(256));
        ts.Literal(lit);
        continue;
      }
      const std::size_t len = kLzMinMatch + rng.NextBelow(0x80);
      std::size_t dist = 0;
      switch (rng.NextBelow(4)) {
        case 0:  // short period: the byte loop
          dist = 1 + rng.NextBelow(15);
          break;
        case 1:  // exactly one chunk apart
          dist = 16;
          break;
        case 2:  // anywhere in the window
          dist = 1 + rng.NextBelow(std::min<std::size_t>(ts.raw(), kLzWindow));
          break;
        default:  // 16 and above, overlapping when dist < len
          dist = 16 + rng.NextBelow(len);
          break;
      }
      // Distances past the output are corruption; keep a few of them.
      if (dist > ts.raw() && rng.NextBelow(8) != 0) dist = ts.raw();
      ts.Match(len, dist);
    }
    // The literal-ends-the-input shape: a last run whose bytes end exactly
    // at the end of the stream, too close for a chunk copy.
    if (rng.NextBelow(2) == 0) {
      Bytes tail(1 + rng.NextBelow(20));
      for (auto& b : tail) b = static_cast<std::uint8_t>(rng.NextBelow(256));
      ts.Literal(tail);
    }
    const Bytes exact = ts.Build();
    const std::string what = "iter " + std::to_string(iter);
    ExpectSameOutcome(exact, what);
    // Runs that end exactly at raw_size, one byte short of it, or past it.
    ExpectSameOutcome(ts.Build(ts.raw() + 1), what + " declared +1");
    if (ts.raw() > 0) ExpectSameOutcome(ts.Build(ts.raw() - 1), what + " -1");
    // Torn somewhere inside, with the declared size right or one short
    // (a torn token that also overruns the size: the check order shows).
    const std::size_t cut = 4 + rng.NextBelow(exact.size() - 3);
    ExpectSameOutcome({exact.data(), cut}, what + " cut");
    if (ts.raw() > 0) {
      const Bytes short_size = ts.Build(ts.raw() - 1);
      ExpectSameOutcome({short_size.data(), cut}, what + " -1 cut");
    }
  }
}

TEST(CompressionDifferential, MatchesReferenceOnCompressorOutput) {
  // Real streams: the compressor's long overlapping runs and far matches.
  for (std::size_t size : {1u, 15u, 16u, 17u, 4096u, 70000u}) {
    for (int alphabet : {1, 2, 16, 256}) {
      const auto data = RandomBytes(size, size * 7 + alphabet, alphabet);
      for (LzLevel level : {LzLevel::kFast, LzLevel::kDefault}) {
        const auto packed = LzCompress(data, level);
        ExpectSameOutcome(packed, "size " + std::to_string(size));
        EXPECT_EQ(LzDecompress(packed), data);
      }
    }
  }
}

}  // namespace
}  // namespace jig
