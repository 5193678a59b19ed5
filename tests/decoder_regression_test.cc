// Regression fixtures for the on-disk decoders, minimized from the fuzz
// harnesses in fuzz/ (see docs/STATIC_ANALYSIS.md, "Fuzzing").
//
// Every fixture pins the same invariant the fuzzers assert at scale: a
// hostile input either decodes or raises exactly the documented taxonomy —
// TraceError subtypes for .jigt/.jigs structure, LzError subtypes for
// compressed blocks, std::runtime_error for JFrame payloads.  The inputs
// here are the minimized crashers the harnesses would find against the
// unhardened decoders: allocation bombs from attacker-declared counts
// (std::bad_alloc is not in any taxonomy) and ByteReader underflows that
// used to escape as plain runtime_error where TraceError was documented.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "trace/trace_file.h"
#include "util/byte_io.h"
#include "util/compression.h"
#include "util/crc32.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

class DecoderRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("jig_decoder_regression_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path Write(const std::string& name, const Bytes& bytes) {
    const fs::path path = dir_ / name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  fs::path dir_;
};

Bytes Slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

std::uint32_t GetU32(const Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t GetU64(const Bytes& b, std::size_t at) {
  return static_cast<std::uint64_t>(GetU32(b, at)) |
         (static_cast<std::uint64_t>(GetU32(b, at + 4)) << 32);
}

void PutU32At(Bytes& b, std::size_t at, std::uint32_t v) {
  b[at] = static_cast<std::uint8_t>(v);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
  b[at + 2] = static_cast<std::uint8_t>(v >> 16);
  b[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64At(Bytes& b, std::size_t at, std::uint64_t v) {
  PutU32At(b, at, static_cast<std::uint32_t>(v));
  PutU32At(b, at + 4, static_cast<std::uint32_t>(v >> 32));
}

// A small finished trace to mutate: header + one block + index trailer.
Bytes MakeValidTrace(const fs::path& scratch) {
  TraceHeader header;
  header.radio = 1;
  const fs::path path = scratch / "valid.jigt";
  {
    TraceFileWriter w(path, header, /*records_per_block=*/4);
    for (int i = 0; i < 6; ++i) {
      CaptureRecord rec;
      rec.timestamp = 1000 + i * 100;
      rec.orig_len = 64;
      rec.bytes.assign(32, static_cast<std::uint8_t>(i));
      w.Append(rec);
    }
    w.Finish();
  }
  return Slurp(path);
}

// ---------------------------------------------------------------------------
// LZ block decoder.

// Minimized crasher: a 4-byte stream whose header declares a 4 GiB output.
// The unhardened decoder reserved the full declared size before reading a
// single token — std::bad_alloc (or an ASan allocation failure), which is
// outside the LzError taxonomy.
TEST(LzDecodeRegression, HostileDeclaredSizeIsCorruptNotOom) {
  const Bytes bomb = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(LzDecompress(bomb), LzCorruptError);
}

// A declared size the token stream could reach but does not fill stays a
// truncation (the pre-existing contract): the reachability bound must only
// reject sizes no stream of this length could produce.
TEST(LzDecodeRegression, ReachableButUnfilledSizeStaysTruncated) {
  Bytes packed = {100, 0, 0, 0};  // declares 100 bytes
  packed.push_back(0x00);         // literal run of 1
  packed.push_back(0xAB);
  EXPECT_THROW(LzDecompress(packed), LzTruncatedError);
}

// ---------------------------------------------------------------------------
// JFrame payload decoder.

// Serialized prefix of a valid jframe up to (and excluding) the instance
// list, so tests can append hostile instance counts.
Bytes JFramePrefixWithoutInstances() {
  Bytes out;
  ByteWriter w(out);
  w.I64(5000);               // timestamp
  w.I64(0);                  // dispersion
  w.U8(1);                   // channel
  w.U8(3);                   // rate
  w.U32(96);                 // wire_len
  w.U64(0x1234);             // digest
  w.U8(0);                   // frame type
  w.U8(0);                   // flags
  w.U16(314);                // duration
  for (int a = 0; a < 18; ++a) w.U8(0x22);  // addr1..addr3
  w.U16(7);                  // sequence
  w.U8(3);                   // frame rate
  w.Varint(0);               // body length
  return out;
}

// Minimized crasher: a varint instance count of 2^40 with no instance
// bytes behind it.  The unhardened decoder reserved 23 bytes per declared
// instance before validating — tens of terabytes from a 6-byte field.
TEST(JFrameRegression, HostileInstanceCountIsRuntimeErrorNotOom) {
  Bytes bytes = JFramePrefixWithoutInstances();
  ByteWriter w(bytes);
  w.Varint(std::uint64_t{1} << 40);
  ByteReader r(bytes);
  EXPECT_THROW(DeserializeJFrame(r), std::runtime_error);
}

// A count that merely exceeds the remaining bytes (without being an
// allocation bomb) is rejected the same way.
TEST(JFrameRegression, InstanceCountPastInputIsRejected) {
  Bytes bytes = JFramePrefixWithoutInstances();
  ByteWriter w(bytes);
  w.Varint(3);  // declares 3 instances; zero bytes follow
  ByteReader r(bytes);
  EXPECT_THROW(DeserializeJFrame(r), std::runtime_error);
}

// ---------------------------------------------------------------------------
// .jigt trace reader.

// Minimized crasher: the trailer's block count patched to 0xFFFFFFFF.  The
// unhardened reader clamped it only against kMaxPackedBlockLen (2^26) and
// reserved ~2 GB of index entries before reading any of them.
TEST_F(DecoderRegressionTest, TraceHostileIndexCountIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  PutU32At(bytes, static_cast<std::size_t>(index_offset), 0xFFFFFFFFu);
  const auto path = Write("hostile_count.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// Minimized crasher: an index entry's record count patched to 0xFFFFFFFF.
// The unhardened reader reserved a record vector for the full count before
// decoding the (tiny) block.
TEST_F(DecoderRegressionTest, TraceHostileRecordCountIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  // Entry 0 starts after the u32 count; record_count is its last field.
  const std::size_t entry0 = static_cast<std::size_t>(index_offset) + 4;
  PutU32At(bytes, entry0 + 24, 0xFFFFFFFFu);
  const auto path = Write("hostile_records.jigt", bytes);
  TraceFileReader reader(path);
  EXPECT_THROW(
      {
        while (reader.Next()) {
        }
      },
      TraceCorruptError);
}

// Minimized crasher: an index entry offset of 2^64-1.  Buffered reads used
// to feed it through a u64→long cast into fseek (failing as a plain
// runtime_error, outside the taxonomy).  The reader now rejects offsets
// past the index region up front.
TEST_F(DecoderRegressionTest, TraceHostileEntryOffsetIsCorrupt) {
  Bytes bytes = MakeValidTrace(dir_);
  const std::uint64_t index_offset = GetU64(bytes, bytes.size() - 12);
  PutU64At(bytes, static_cast<std::size_t>(index_offset) + 4,
           0xFFFFFFFFFFFFFFFFull);
  const auto path = Write("hostile_offset.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// Minimized taxonomy escape: a header_len that frames fewer bytes than
// TraceHeader needs.  The ByteReader underflow inside DeserializeHeader
// used to escape as a plain runtime_error; the documented contract for
// unusable trace bytes is TraceCorruptError.
TEST_F(DecoderRegressionTest, TraceShortHeaderIsCorruptNotRawRuntimeError) {
  Bytes bytes = {'J', 'I', 'G', 'T', 1, 0, 0, 0, 5, 0, 0, 0,
                 0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  const auto path = Write("short_header.jigt", bytes);
  EXPECT_THROW(TraceFileReader reader(path), TraceCorruptError);
}

// ---------------------------------------------------------------------------
// .jigs spill-segment reader.

// Minimized taxonomy escape: a header_len that frames fewer bytes than
// SpillSegmentHeader needs (9).  Same underflow-escape as the trace header.
TEST_F(DecoderRegressionTest, SpillShortHeaderIsCorruptNotRawRuntimeError) {
  Bytes bytes = {'J', 'I', 'G', 'S', 1, 0, 0, 0, 3, 0, 0, 0, 0x01, 0x02, 0x03};
  const auto path = Write("short_header.jigs", bytes);
  for (const bool strict : {true, false}) {
    EXPECT_THROW(SpillSegmentReader reader(path, strict), TraceCorruptError);
  }
}

// A segment cut off inside the magic is truncation (a writer that died
// immediately), in both strict and tail modes — and must not leak the
// already-opened FILE* (the fuzz harnesses run this ctor in a loop under
// ASan/LSan, which is where a descriptor leak shows up).
TEST_F(DecoderRegressionTest, SpillTruncatedMagicIsTruncated) {
  const auto path = Write("torn_magic.jigs", Bytes{'J', 'I'});
  for (const bool strict : {true, false}) {
    EXPECT_THROW(SpillSegmentReader reader(path, strict), TraceTruncatedError);
  }
}

// A hostile block length (past kMaxSpillBlockLen) inside an otherwise valid
// segment is corruption in both modes — not an allocation attempt.
TEST_F(DecoderRegressionTest, SpillHostileBlockLengthIsCorrupt) {
  SpillSegmentHeader header;
  header.channel = 1;
  header.sequence = 1;
  const fs::path path = dir_ / "hostile_block.jigs";
  {
    SpillSegmentWriter w(path, header, /*records_per_block=*/4);
    JFrame jf;
    jf.timestamp = 100;
    w.Append(jf);
    w.Finish();
  }
  Bytes bytes = Slurp(path);
  // The first block's length word sits right after magic+version+hdr frame.
  const std::size_t block_len_at = 12 + GetU32(bytes, 8);
  PutU32At(bytes, block_len_at, 0xFFFFFFFFu);
  const auto patched = Write("hostile_block_patched.jigs", bytes);
  for (const bool strict : {true, false}) {
    SpillSegmentReader reader(patched, strict);
    EXPECT_THROW(
        {
          while (reader.Next()) {
          }
        },
        TraceCorruptError);
  }
}

// ---------------------------------------------------------------------------
// .jigc checkpoint loader.

// A CRC-valid checkpoint for deployment "d" with one frontier and one
// segment; the tables start at byte 34 (magic, version, varint name
// length, name, three u64s).
constexpr std::size_t kCheckpointFrontierCountAt = 34;
constexpr std::size_t kCheckpointSegmentCountAt =
    kCheckpointFrontierCountAt + 4 + 13;

Bytes MakeValidCheckpoint(const fs::path& dir) {
  Checkpoint cp;
  cp.deployment = "d";
  cp.frontiers.push_back({7, 100, true});
  OutputSegmentInfo seg;
  seg.sequence = 1;
  seg.bytes = 4096;
  cp.segments.push_back(seg);
  const fs::path path = dir / "valid.jigc";
  SaveCheckpoint(path, cp);
  return Slurp(path);
}

// Re-seals the CRC trailer so a patched body reaches the parser.
void ResealCheckpoint(Bytes& bytes) {
  const std::uint32_t crc = Crc32({bytes.data(), bytes.size() - 4});
  PutU32At(bytes, bytes.size() - 4, crc);
}

// Minimized crasher: a CRC-valid checkpoint declaring 0xFFFFFFFF
// frontiers.  The unhardened loader reserved 24 bytes per declared entry
// (~100 GB) before reading any of them.
TEST_F(DecoderRegressionTest, CheckpointHostileFrontierCountIsCorrupt) {
  Bytes bytes = MakeValidCheckpoint(dir_);
  ASSERT_EQ(GetU32(bytes, kCheckpointFrontierCountAt), 1u);
  PutU32At(bytes, kCheckpointFrontierCountAt, 0xFFFFFFFFu);
  ResealCheckpoint(bytes);
  const auto path = Write("hostile_frontiers.jigc", bytes);
  EXPECT_THROW(LoadCheckpoint(path), TraceCorruptError);
}

// The same for the segment table (40 bytes reserved per declared entry).
TEST_F(DecoderRegressionTest, CheckpointHostileSegmentCountIsCorrupt) {
  Bytes bytes = MakeValidCheckpoint(dir_);
  ASSERT_EQ(GetU32(bytes, kCheckpointSegmentCountAt), 1u);
  PutU32At(bytes, kCheckpointSegmentCountAt, 0xFFFFFFFFu);
  ResealCheckpoint(bytes);
  const auto path = Write("hostile_segments.jigc", bytes);
  EXPECT_THROW(LoadCheckpoint(path), TraceCorruptError);
  // The unpatched file still loads: the bound rejects only lies.
  const Checkpoint cp = LoadCheckpoint(dir_ / "valid.jigc");
  EXPECT_EQ(cp.frontiers.size(), 1u);
  EXPECT_EQ(cp.segments.size(), 1u);
}

}  // namespace
}  // namespace jig
