// Spill-tier pins (src/jigsaw/spill.{h,cc} + the pipeline hooks).
//
// Three contracts:
//   1. Determinism: the merged jframe stream is byte-identical with the
//      spill tier disabled, forced (tiny threshold — everything rides
//      disk), or engaging/disengaging naturally mid-stream, across
//      threads in {1, 2, auto}.
//   2. Recovery: a truncated or corrupt trailing spill segment surfaces
//      TraceTruncatedError / TraceCorruptError exactly like .jigt files —
//      a crash mid-spill is detected, never silently merged.
//   3. Relief: a laggard consumer scenario spills to disk instead of
//      retaining the backlog in memory, and max_spill_bytes exhaustion
//      degrades to the old watermark backpressure.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "jframe_equality.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"
#include "synthetic.h"
#include "trace/trace_set.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;

JFrame SampleJFrame(int salt) {
  JFrame jf;
  jf.timestamp = 1'000'000 + salt;
  jf.dispersion = 7 + salt;
  jf.channel = Channel::kCh6;
  jf.rate = PhyRate::kG54;
  jf.wire_len = 142;
  jf.digest = 0xDEADBEEFCAFEF00Dull + static_cast<std::uint64_t>(salt);
  jf.frame = MakeData(MacAddress::Client(3), MacAddress::Ap(1),
                      MacAddress::Ap(1), static_cast<std::uint16_t>(salt),
                      Bytes{9, 8, 7, 6, 5}, PhyRate::kG54,
                      /*from_ds=*/true, /*to_ds=*/false);
  jf.frame.retry = (salt % 2) != 0;
  for (int i = 0; i < 3; ++i) {
    FrameInstance inst;
    inst.radio = static_cast<RadioId>(10 + i);
    inst.local_timestamp = 900'000 + salt + i;
    inst.universal_timestamp = jf.timestamp + i;
    inst.rssi_dbm = -61.25F - static_cast<float>(i);
    inst.outcome = i == 2 ? RxOutcome::kFcsError : RxOutcome::kOk;
    jf.instances.push_back(inst);
  }
  return jf;
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spill_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Serialization + segment format.

TEST_F(SpillTest, JFrameRoundtripIsLossless) {
  const JFrame original = SampleJFrame(17);
  Bytes buf;
  SerializeJFrame(original, buf);
  ByteReader r(buf);
  const JFrame back = DeserializeJFrame(r);
  EXPECT_TRUE(r.AtEnd());
  ExpectIdenticalStreams({original}, {back});
  // The comparator skips the decoded frame's non-wire fields; check the
  // remainder explicitly so the spill path can never shave a field.
  EXPECT_EQ(back.frame.rate, original.frame.rate);
  EXPECT_EQ(back.frame.retry, original.frame.retry);
  EXPECT_EQ(back.frame.from_ds, original.frame.from_ds);
  EXPECT_EQ(back.frame.to_ds, original.frame.to_ds);
  EXPECT_EQ(back.frame.duration_us, original.frame.duration_us);
}

TEST_F(SpillTest, SegmentRoundtripAcrossBlocks) {
  const auto path = dir_ / "ch6-0.jigs";
  SpillSegmentHeader header;
  header.channel = 6;
  header.sequence = 4;
  {
    SpillSegmentWriter writer(path, header, /*records_per_block=*/8);
    for (int i = 0; i < 50; ++i) writer.Append(SampleJFrame(i));
    writer.Finish();
  }
  SpillSegmentReader reader(path);
  EXPECT_EQ(reader.header().channel, 6);
  EXPECT_EQ(reader.header().sequence, 4u);
  std::vector<JFrame> got;
  while (auto jf = reader.Next()) got.push_back(std::move(*jf));
  EXPECT_TRUE(reader.finalized());
  ASSERT_EQ(got.size(), 50u);
  EXPECT_GE(reader.blocks_read(), 6u);  // really crossed block boundaries
  for (int i = 0; i < 50; ++i) {
    SCOPED_TRACE(i);
    ExpectIdenticalStreams({SampleJFrame(i)}, {got[static_cast<size_t>(i)]});
  }
}

// Fail-on-pre-fix style, mirroring trace_file_test.cc: each corruption
// class must surface its own error, and truncation must never be read as
// clean end-of-segment.

TEST_F(SpillTest, TruncatedTrailingSegmentReportsTruncationNotEof) {
  const auto path = dir_ / "ch1-0.jigs";
  {
    SpillSegmentWriter writer(path, {}, /*records_per_block=*/8);
    for (int i = 0; i < 20; ++i) writer.Append(SampleJFrame(i));
    writer.Finish();
  }
  const auto full = fs::file_size(path);
  // Cut exactly at a structure boundary (drop only the finalize marker):
  // truncation — the writer died between blocks.
  fs::resize_file(path, full - 4);
  {
    SpillSegmentReader reader(path);
    std::size_t n = 0;
    EXPECT_THROW(
        {
          while (reader.Next()) ++n;
        },
        TraceTruncatedError);
    EXPECT_GT(n, 0u);  // the complete blocks still read
  }
  // Cut mid-way through the trailing block: still a crash mid-spill.
  fs::resize_file(path, full - 9);
  {
    SpillSegmentReader reader(path);
    EXPECT_THROW(
        {
          while (reader.Next()) {
          }
        },
        TraceTruncatedError);
  }
}

TEST_F(SpillTest, CorruptSegmentReportsCorruptionNotTruncation) {
  // Bad magic.
  const auto bad_magic = dir_ / "bad-magic.jigs";
  std::FILE* f = std::fopen(bad_magic.string().c_str(), "wb");
  std::fwrite("NOTASPILLSEGMENT", 1, 16, f);
  std::fclose(f);
  EXPECT_THROW(SpillSegmentReader{bad_magic}, TraceCorruptError);

  // Garbage block length after a valid prefix (the writer's destructor
  // finalizes, so drop the terminator before appending the junk word).
  const auto garbage = dir_ / "garbage-len.jigs";
  {
    SpillSegmentWriter writer(garbage, {}, /*records_per_block=*/4);
    for (int i = 0; i < 4; ++i) writer.Append(SampleJFrame(i));
    writer.Sync();
  }
  fs::resize_file(garbage, fs::file_size(garbage) - 4);
  f = std::fopen(garbage.string().c_str(), "ab");
  const std::uint8_t junk[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  std::fwrite(junk, 1, 4, f);
  std::fclose(f);
  {
    SpillSegmentReader reader(garbage);
    std::size_t n = 0;
    EXPECT_THROW(
        {
          while (reader.Next()) ++n;
        },
        TraceCorruptError);
    EXPECT_EQ(n, 4u);
  }

  // Unsupported version.
  const auto bad_version = dir_ / "bad-version.jigs";
  f = std::fopen(bad_version.string().c_str(), "wb");
  std::fwrite(kSpillMagic, 1, 4, f);
  const std::uint8_t v99[4] = {99, 0, 0, 0};
  std::fwrite(v99, 1, 4, f);
  std::fclose(f);
  EXPECT_THROW(SpillSegmentReader{bad_version}, TraceCorruptError);
}

// ---------------------------------------------------------------------------
// Determinism across spill modes.

TEST_F(SpillTest, SpillConfigIsValidatedAtEntry) {
  TraceSet traces = MultiChannelNetwork(3).Build();
  MergeConfig cfg;
  cfg.threads = 2;
  cfg.spill_dir = dir_;
  cfg.spill_threshold = 0;
  EXPECT_THROW(MergeTraces(traces, cfg), std::invalid_argument);
  cfg.spill_threshold = kMergeQueueWatermark + 1;
  EXPECT_THROW(MergeTraces(traces, cfg), std::invalid_argument);
  // Without a spill_dir the thresholds are inert, like `threads` entries
  // beyond the shard count.
  cfg.spill_dir.clear();
  cfg.spill_threshold = 0;
  EXPECT_NO_THROW(MergeTraces(traces, cfg));
}

struct SpillMode {
  const char* name;
  bool enabled;
  std::size_t threshold;
};

class SpillDeterminism : public SpillTest,
                         public ::testing::WithParamInterface<unsigned> {};

TEST_P(SpillDeterminism, ByteIdenticalAcrossSpillModes) {
  const unsigned threads = GetParam();
  // The reference: the default merge, no spill.
  TraceSet reference_traces = MultiChannelNetwork(77).Build();
  const MergeResult reference = MergeTraces(reference_traces);
  ASSERT_GT(reference.jframes.size(), 100u);

  // The tier engages on actual lag (queue residue at worker-round entry),
  // so a batch merge whose consumer keeps up may legitimately never touch
  // disk — SpillLaggard pins that the disk path really runs under lag.
  // Here the pin is the determinism contract: whatever each threshold
  // makes the tier do (including engaging and disengaging mid-stream),
  // the stream must be byte-identical to the no-spill reference.
  const SpillMode modes[] = {
      {"disabled", false, 0},
      {"forced", true, 1},     // any round residue at all rides the disk
      {"toggling", true, 24},  // engages/disengages as queues breathe
  };
  for (const SpillMode& mode : modes) {
    SCOPED_TRACE(mode.name);
    TraceSet traces = MultiChannelNetwork(77).Build();
    MergeConfig cfg;
    cfg.threads = threads;
    if (mode.enabled) {
      cfg.spill_dir = dir_ / mode.name;
      cfg.spill_threshold = mode.threshold;
    }
    std::vector<JFrame> streamed;
    MergeSession session(traces, cfg, [&streamed](JFrame&& jf) {
      streamed.push_back(std::move(jf));
    });
    ASSERT_EQ(session.Poll(), MergeSession::Status::kDone);
    ExpectIdenticalStreams(streamed, reference.jframes);
    ExpectEqualStats(session.stats(), reference.stats);
    if (mode.enabled) {
      // Completion reclaims every segment: nothing may outlive the run.
      EXPECT_EQ(session.spill_bytes_on_disk(), 0u);
      std::size_t leftovers = 0;
      for (const auto& entry : fs::directory_iterator(cfg.spill_dir)) {
        (void)entry;
        ++leftovers;
      }
      EXPECT_EQ(leftovers, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpillDeterminism,
                         ::testing::Values(1u, 2u, 0u));

// ---------------------------------------------------------------------------
// Laggard-consumer relief + budget exhaustion.  Scenario mirrors the
// watermark-stall pin in live_ingest_test.cc: one radio's trace stops at
// 40% (unfinalized), gating the k-way merge, while every other radio's
// full backlog piles up behind the gate.

struct LaggardRig {
  TraceSetWriter writer;
  std::vector<std::vector<CaptureRecord>> records;
  std::vector<std::size_t> cursor;

  explicit LaggardRig(const fs::path& dir) : writer(dir) {}
};

std::unique_ptr<LaggardRig> WriteLaggardScenario(const fs::path& dir,
                                                 std::size_t laggard) {
  TraceSet net = MultiChannelNetwork(91).Build();
  auto rig = std::make_unique<LaggardRig>(dir);
  for (std::size_t i = 0; i < net.size(); ++i) {
    auto& mem = dynamic_cast<MemoryTrace&>(net.at(i));
    rig->writer.AddRadio(mem.header());
    rig->records.push_back(mem.records());
  }
  rig->cursor.assign(rig->records.size(), 0);
  for (std::size_t i = 0; i < rig->records.size(); ++i) {
    const std::size_t target =
        i == laggard ? rig->records[i].size() * 2 / 5 : rig->records[i].size();
    while (rig->cursor[i] < target) {
      rig->writer.Append(i, rig->records[i][rig->cursor[i]++]);
    }
  }
  rig->writer.Sync();
  return rig;
}

void FinishLaggardScenario(LaggardRig& rig) {
  for (std::size_t i = 0; i < rig.records.size(); ++i) {
    while (rig.cursor[i] < rig.records[i].size()) {
      rig.writer.Append(i, rig.records[i][rig.cursor[i]++]);
    }
  }
  rig.writer.Sync();
  rig.writer.FinalizeAll();
}

class SpillLaggard : public SpillTest,
                     public ::testing::WithParamInterface<unsigned> {};

TEST_P(SpillLaggard, SpillsWhileGatedAndDrainsByteIdentical) {
  const unsigned threads = GetParam();
  constexpr std::size_t kLaggard = 0;  // channel 1
  const auto trace_dir = dir_ / "traces";
  auto rig = WriteLaggardScenario(trace_dir, kLaggard);
  const std::size_t n = rig->records.size();

  TraceSet traces = TraceSet::FollowDirectory(trace_dir, n);
  MergeConfig cfg;
  cfg.threads = threads;
  cfg.spill_dir = dir_ / "spill";
  cfg.spill_threshold = 16;
  std::vector<JFrame> streamed;
  MergeSession session(traces, cfg, [&streamed](JFrame&& jf) {
    streamed.push_back(std::move(jf));
  });

  ASSERT_EQ(session.Poll(), MergeSession::Status::kStarved);
  ASSERT_EQ(session.Poll(), MergeSession::Status::kStarved);

  // The gated shards' backlog went to disk, not memory.
  EXPECT_GT(session.spilled_jframes(), 0u);
  EXPECT_GT(session.spill_bytes_on_disk(), 0u);

  // Against the identical no-spill session, in-memory retention shrinks by
  // a wide margin: the backlog sits in segments instead of queues.
  TraceSet nospill_traces = TraceSet::FollowDirectory(trace_dir, n);
  MergeConfig nospill_cfg;
  nospill_cfg.threads = threads;
  MergeSession nospill(nospill_traces, nospill_cfg, [](JFrame&&) {});
  ASSERT_EQ(nospill.Poll(), MergeSession::Status::kStarved);
  EXPECT_LT(2 * session.retained_jframes(), nospill.retained_jframes());

  // The laggard catches up: everything replays and the stream equals the
  // batch merge — the detour through disk lost and reordered nothing.
  FinishLaggardScenario(*rig);
  for (;;) {
    if (session.Poll() == MergeSession::Status::kDone) break;
  }
  EXPECT_EQ(session.spill_bytes_on_disk(), 0u);

  TraceSet batch_traces = TraceSet::OpenDirectory(trace_dir);
  const MergeResult batch = MergeTraces(batch_traces);
  ASSERT_GT(batch.jframes.size(), 100u);
  ExpectIdenticalStreams(streamed, batch.jframes);
  ExpectEqualStats(session.stats(), batch.stats);
}

INSTANTIATE_TEST_SUITE_P(Threads, SpillLaggard,
                         ::testing::Values(1u, 2u, 0u));

TEST_F(SpillTest, BudgetExhaustionDegradesToWatermarkBackpressure) {
  constexpr std::size_t kLaggard = 0;
  const auto trace_dir = dir_ / "traces";
  auto rig = WriteLaggardScenario(trace_dir, kLaggard);
  const std::size_t n = rig->records.size();

  TraceSet traces = TraceSet::FollowDirectory(trace_dir, n);
  MergeConfig cfg;
  cfg.threads = 2;
  cfg.spill_dir = dir_ / "spill";
  cfg.spill_threshold = 16;
  // Tiny budget: covers the segment headers plus at most a block or two.
  cfg.max_spill_bytes = 2048;
  std::vector<JFrame> streamed;
  MergeSession session(traces, cfg, [&streamed](JFrame&& jf) {
    streamed.push_back(std::move(jf));
  });

  ASSERT_EQ(session.Poll(), MergeSession::Status::kStarved);
  ASSERT_EQ(session.Poll(), MergeSession::Status::kStarved);

  // The cap is block-granular: each shard may overshoot by the one block
  // in flight when it noticed, never by the backlog.
  EXPECT_LE(session.spill_bytes_on_disk(),
            cfg.max_spill_bytes + 3 * (64u << 10));
  // Degraded to the old contract: bounded in-memory retention at the
  // watermark, with the overflow backlog simply not consumed yet.
  EXPECT_LE(session.retained_jframes(), 3 * (kMergeQueueWatermark + 2048));

  FinishLaggardScenario(*rig);
  for (;;) {
    if (session.Poll() == MergeSession::Status::kDone) break;
  }

  TraceSet batch_traces = TraceSet::OpenDirectory(trace_dir);
  const MergeResult batch = MergeTraces(batch_traces);
  ExpectIdenticalStreams(streamed, batch.jframes);
}

// ---------------------------------------------------------------------------
// Budget-accounting regressions.

// Pre-fix, SpillBudget::Release was a raw fetch_sub: one over-release (a
// reclaim path double-counting a segment) wrapped `used` to ~2^64, which
// latched Full() permanently true and silently disabled the spill tier
// for the rest of the session.  Release must saturate at zero.
TEST(SpillBudgetTest, ReleaseSaturatesInsteadOfWrapping) {
  SpillBudget budget;
  budget.limit = 100;
  budget.Charge(50);
  EXPECT_FALSE(budget.Full());
  budget.Release(80);  // over-release: more than was ever charged
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_FALSE(budget.Full()) << "wrapped budget latched Full() forever";
  // The budget still works normally afterwards.
  budget.Charge(100);
  EXPECT_TRUE(budget.Full());
  budget.Release(1);
  EXPECT_FALSE(budget.Full());
}

// Churn: push enough through a tiny-segment queue that the writer rotates
// several times, replay only part of it (reader mid-segment), then
// destruct.  The budget must return to exactly zero — ReclaimDrained
// followed by the destructor, or the destructor alone mid-replay, must
// release each segment's bytes exactly once (no leak pinning the budget,
// no double-release wrapping it).
TEST_F(SpillTest, ChurnedQueueReturnsBudgetExactlyOnce) {
  SpillBudget budget;
  budget.limit = 0;  // uncapped: we only watch the accounting
  {
    SpillQueue queue(dir_, /*channel=*/6, &budget, /*segment_bytes=*/256);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(queue.Push(SampleJFrame(i)));
    }
    queue.Sync();
    ASSERT_GT(budget.used.load(), 0u);
    // Replay part of the backlog: enough to reclaim some finished
    // segments in Pop() and leave the reader mid-segment on another.
    for (int i = 0; i < 77; ++i) {
      auto jf = queue.Pop();
      ASSERT_TRUE(jf.has_value());
    }
    EXPECT_FALSE(queue.Empty());
    // Destructor fires here, mid-replay, with rotated segments in every
    // state: fully replayed (already released), partially replayed, and
    // the writer's open segment.
  }
  EXPECT_EQ(budget.used.load(), 0u)
      << "budget drifted across a mid-replay teardown";
  EXPECT_TRUE(fs::is_empty(dir_)) << "spill segments outlived their queue";
}

// Full-drain path: ReclaimDrained releases everything, and the destructor
// right after must not release it again (idempotence pin — pre-fix both
// paths released every remaining segment's bytes).
TEST_F(SpillTest, ReclaimThenDestructReleasesOnce) {
  SpillBudget budget;
  budget.limit = 0;
  {
    SpillQueue queue(dir_, /*channel=*/1, &budget, /*segment_bytes=*/256);
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(queue.Push(SampleJFrame(i)));
    }
    queue.Sync();
    int popped = 0;
    while (queue.Pop().has_value()) ++popped;
    ASSERT_EQ(popped, 120);
    ASSERT_TRUE(queue.Empty());
    queue.ReclaimDrained();
    EXPECT_EQ(budget.used.load(), 0u);
    EXPECT_EQ(queue.bytes_on_disk(), 0u);
    // Destructor runs now over the already-reclaimed state.
  }
  EXPECT_EQ(budget.used.load(), 0u)
      << "destructor double-released after ReclaimDrained";
  EXPECT_TRUE(fs::is_empty(dir_));
}

}  // namespace
}  // namespace jig
