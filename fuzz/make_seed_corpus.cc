// Generates the committed seed corpora under fuzz/corpus/<target>/.
//
//   make_seed_corpus <corpus-root>
//
// Seeds are small, structurally valid (or near-valid) inputs produced by
// the real writers, so the fuzzers start from deep in the format instead of
// spending their budget rediscovering magic numbers.  Regenerate after any
// format change (docs/STATIC_ANALYSIS.md, "Refreshing the seed corpora").
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "trace/trace_file.h"
#include "util/compression.h"

namespace fs = std::filesystem;

namespace {

void WriteSeed(const fs::path& dir, const std::string& name,
               const jig::Bytes& bytes) {
  fs::create_directories(dir);
  std::ofstream f(dir / name, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

jig::Bytes Slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return jig::Bytes(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
}

jig::CaptureRecord MakeRecord(std::uint64_t i) {
  jig::CaptureRecord rec;
  rec.timestamp = static_cast<jig::LocalMicros>(1000 + i * 250);
  rec.outcome = i % 7 == 0 ? jig::RxOutcome::kFcsError : jig::RxOutcome::kOk;
  rec.rssi_dbm = -40.0F - static_cast<float>(i % 30);
  rec.rate = jig::PhyRate::kB11;
  rec.orig_len = 64 + static_cast<std::uint32_t>(i % 128);
  rec.bytes.assign(24 + i % 48, static_cast<std::uint8_t>(0xA0 + i % 16));
  // A plausible data-frame header so the deserialized record also exercises
  // downstream frame parsing when fuzz inputs graduate into pipeline tests.
  rec.bytes[0] = 0x08;
  return rec;
}

jig::JFrame MakeJFrame(std::uint64_t i) {
  jig::JFrame jf;
  jf.timestamp = static_cast<jig::UniversalMicros>(5000 + i * 400);
  jf.dispersion = 12;
  jf.channel = jig::Channel::kCh1;
  jf.rate = jig::PhyRate::kB11;
  jf.wire_len = 96;
  jf.digest = 0x1234567890ABCDEFull ^ i;
  jf.frame.type = jig::FrameType::kData;
  jf.frame.duration_us = 314;
  jf.frame.sequence = static_cast<std::uint16_t>(i);
  jf.frame.rate = jig::PhyRate::kB11;
  jf.frame.body.assign(40, static_cast<std::uint8_t>(i));
  for (std::uint64_t k = 0; k <= i % 3; ++k) {
    jig::FrameInstance inst;
    inst.radio = static_cast<jig::RadioId>(k);
    inst.local_timestamp = static_cast<jig::LocalMicros>(900 + i * 400);
    inst.universal_timestamp = jf.timestamp;
    inst.rssi_dbm = -55.5F;
    inst.outcome = jig::RxOutcome::kOk;
    jf.instances.push_back(inst);
  }
  return jf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  const fs::path scratch = fs::temp_directory_path() / "jig_seed_scratch";
  fs::create_directories(scratch);

  // --- fuzz_trace_reader: finished, unfinished, and multi-block traces ----
  {
    jig::TraceHeader header;
    header.radio = 3;
    header.pod = 1;
    header.monitor = 2;
    header.channel = jig::Channel::kCh1;
    header.snaplen = 224;

    const fs::path finished = scratch / "finished.jigt";
    {
      jig::TraceFileWriter w(finished, header, /*records_per_block=*/8);
      for (std::uint64_t i = 0; i < 20; ++i) w.Append(MakeRecord(i));
      w.Finish();
    }
    WriteSeed(root / "fuzz_trace_reader", "finished_trace.bin",
              Slurp(finished));

    const fs::path tiny = scratch / "tiny.jigt";
    {
      jig::TraceFileWriter w(tiny, header);
      w.Append(MakeRecord(0));
      w.Finish();
    }
    WriteSeed(root / "fuzz_trace_reader", "single_record.bin", Slurp(tiny));

    // Header-only (writer synced but never finished): truncated on read.
    const fs::path unfinished = scratch / "unfinished.jigt";
    {
      jig::TraceFileWriter w(unfinished, header, /*records_per_block=*/4);
      for (std::uint64_t i = 0; i < 6; ++i) w.Append(MakeRecord(i));
      w.Sync();
      // Dropped without Finish() on purpose?  No — the destructor finalizes.
      // Capture the synced-but-unfinished bytes before that happens.
      WriteSeed(root / "fuzz_trace_reader", "unfinished_trace.bin",
                Slurp(unfinished));
    }
  }

  // --- fuzz_spill_reader: finalized and frontier segments ----------------
  {
    jig::SpillSegmentHeader header;
    header.channel = 1;
    header.sequence = 7;

    const fs::path finalized = scratch / "finalized.jigs";
    {
      jig::SpillSegmentWriter w(finalized, header, /*records_per_block=*/4);
      for (std::uint64_t i = 0; i < 10; ++i) w.Append(MakeJFrame(i));
      w.Finish();
    }
    WriteSeed(root / "fuzz_spill_reader", "finalized_segment.bin",
              Slurp(finalized));

    const fs::path open_seg = scratch / "open.jigs";
    {
      jig::SpillSegmentWriter w(open_seg, header, /*records_per_block=*/4);
      for (std::uint64_t i = 0; i < 5; ++i) w.Append(MakeJFrame(i));
      w.Sync();
      WriteSeed(root / "fuzz_spill_reader", "open_segment.bin",
                Slurp(open_seg));
    }
  }

  // --- fuzz_lz_decode: compressed blocks at both levels ------------------
  {
    jig::Bytes compressible;
    for (int i = 0; i < 600; ++i) {
      compressible.push_back(static_cast<std::uint8_t>("JIGSAWJIGSAW"[i % 12]));
    }
    WriteSeed(root / "fuzz_lz_decode", "compressible.bin",
              jig::LzCompress(compressible));
    WriteSeed(root / "fuzz_lz_decode", "compressible_fast.bin",
              jig::LzCompress(compressible, jig::LzLevel::kFast));
    jig::Bytes incompressible;
    std::uint32_t x = 0xC0FFEE11;
    for (int i = 0; i < 200; ++i) {
      x = x * 1664525u + 1013904223u;  // fixed LCG: reproducible "noise"
      incompressible.push_back(static_cast<std::uint8_t>(x >> 24));
    }
    WriteSeed(root / "fuzz_lz_decode", "incompressible.bin",
              jig::LzCompress(incompressible));
    WriteSeed(root / "fuzz_lz_decode", "empty.bin", jig::LzCompress({}));
  }

  // --- fuzz_jframe_deserialize: serialized frames ------------------------
  {
    for (std::uint64_t i = 0; i < 4; ++i) {
      jig::Bytes out;
      jig::SerializeJFrame(MakeJFrame(i), out);
      WriteSeed(root / "fuzz_jframe_deserialize",
                "jframe" + std::to_string(i) + ".bin", out);
    }
  }

  // --- fuzz_checkpoint_load: empty and populated checkpoints -------------
  {
    jig::Checkpoint empty;
    empty.deployment = "seed";
    jig::SaveCheckpoint(scratch / "empty.jigc", empty);
    WriteSeed(root / "fuzz_checkpoint_load", "empty_checkpoint.bin",
              Slurp(scratch / "empty.jigc"));

    jig::Checkpoint full;
    full.deployment = "building-1";
    full.emitted = 1234;
    full.active_sequence = 3;
    full.active_base = 1000;
    for (std::uint32_t radio = 0; radio < 4; ++radio) {
      full.frontiers.push_back({radio, 500u + radio, radio % 2 == 0});
    }
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      jig::OutputSegmentInfo seg;
      seg.sequence = seq;
      seg.base_index = (seq - 1) * 500;
      seg.max_timestamp = static_cast<std::int64_t>(seq * 1'000'000);
      seg.bytes = 8192 * seq;
      seg.sealed = seq < 3;
      full.segments.push_back(seg);
    }
    jig::SaveCheckpoint(scratch / "full.jigc", full);
    WriteSeed(root / "fuzz_checkpoint_load", "full_checkpoint.bin",
              Slurp(scratch / "full.jigc"));
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);
  std::printf("seed corpora written under %s\n", root.string().c_str());
  return 0;
}
