// Live-ingest equivalence suite — the pin for the tail-follow trace layer
// (TailFileTrace / TraceSetWriter) and the resumable MergeSession.
//
// The central contract: a MergeSession tailing .jigt files *while they are
// being written* must emit, once every writer finalizes, a jframe stream
// byte-identical to a batch MergeTraces over the finished files — for every
// threading mode.  Around that pin: watermark behavior under starved and
// uneven sources (a lagging radio, an early-finalizing radio, a radio that
// joins after the others), bounded retention, and corruption robustness of
// the tail reader (clean errors, never a spin or a misread).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "jframe_equality.h"
#include "jigsaw/link.h"
#include "jigsaw/pipeline.h"
#include "link_equality.h"
#include "synthetic.h"
#include "trace/tail_trace.h"
#include "trace/trace_set.h"
#include "util/compression.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::ExpectLinkIdentical;
using testing::MultiChannelNetwork;

// Per-radio record scripts extracted from a synthetic network, plus the
// cursor state of an incremental writer over them.
struct LiveScript {
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records;

  static LiveScript FromNetwork(TraceSet&& traces) {
    LiveScript script;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto& mem = dynamic_cast<MemoryTrace&>(traces.at(i));
      script.headers.push_back(mem.header());
      script.records.push_back(mem.records());
    }
    return script;
  }

  std::size_t size() const { return headers.size(); }
};

// Writes a prefix of each radio's script: radio i advances to
// `fraction[i]` of its records (monotonically; already-written records are
// skipped).  Returns via `cursor` state kept by the caller.
void AppendFractions(TraceSetWriter& writer, const LiveScript& script,
                     std::vector<std::size_t>& cursor,
                     const std::vector<double>& fraction) {
  for (std::size_t i = 0; i < script.size(); ++i) {
    const auto target = static_cast<std::size_t>(
        static_cast<double>(script.records[i].size()) * fraction[i]);
    while (cursor[i] < target) {
      writer.Append(i, script.records[i][cursor[i]++]);
    }
  }
  writer.Sync();
}

// Drives a MergeSession over tail-follow streams until kDone, collecting
// the stream.  `between_polls` (optional) runs after every poll — the
// hook the writer-thread test uses to assert liveness properties.
struct LiveRun {
  std::vector<JFrame> jframes;
  MergeStreamStats stats;
  std::size_t peak_retained = 0;
};

LiveRun RunLiveSession(const fs::path& dir, std::size_t radios,
                       unsigned threads) {
  LiveRun run;
  TraceSet traces = TraceSet::FollowDirectory(dir, radios);
  MergeConfig cfg;
  cfg.threads = threads;
  MergeSession session(traces, cfg, [&run](JFrame&& jf) {
    run.jframes.push_back(std::move(jf));
  });
  for (;;) {
    const auto status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.stats.bootstrap = session.bootstrap();
  run.stats.stats = session.stats();
  run.peak_retained = session.peak_retained_jframes();
  return run;
}

MergeResult BatchMerge(const fs::path& dir, unsigned threads = 1) {
  TraceSet traces = TraceSet::OpenDirectory(dir);
  MergeConfig cfg;
  cfg.threads = threads;
  return MergeTraces(traces, cfg);
}

class LiveIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("live_ingest_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The tentpole pin: writer thread appends in timed chunks while the
// session tails; the final stream must be byte-identical to the batch
// merge of the finished files, across threads in {1, 2, auto}.

class LiveVsBatch : public LiveIngestTest,
                    public ::testing::WithParamInterface<unsigned> {};

TEST_P(LiveVsBatch, ByteIdenticalToBatchOfFinishedFiles) {
  const unsigned threads = GetParam();
  auto script = LiveScript::FromNetwork(MultiChannelNetwork(21).Build());
  const std::size_t n = script.size();

  std::thread writer_thread([&] {
    TraceSetWriter writer(dir_);
    for (std::size_t i = 0; i < n; ++i) {
      // Small blocks so many blocks land mid-flight, not just at Sync.
      writer.AddRadio(script.headers[i], /*records_per_block=*/64);
    }
    std::vector<std::size_t> cursor(n, 0);
    constexpr int kChunks = 16;
    for (int chunk = 1; chunk <= kChunks; ++chunk) {
      AppendFractions(writer, script, cursor,
                      std::vector<double>(
                          n, static_cast<double>(chunk) / kChunks));
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    writer.FinalizeAll();
  });

  const LiveRun live = RunLiveSession(dir_, n, threads);
  writer_thread.join();

  const MergeResult batch = BatchMerge(dir_);  // threads=1 reference
  ASSERT_GT(batch.jframes.size(), 100u);
  ExpectIdenticalStreams(live.jframes, batch.jframes);
  ExpectEqualStats(live.stats.stats, batch.stats);
  ASSERT_EQ(live.stats.bootstrap.synced.size(),
            batch.bootstrap.synced.size());
  for (std::size_t i = 0; i < batch.bootstrap.synced.size(); ++i) {
    EXPECT_EQ(live.stats.bootstrap.synced[i], batch.bootstrap.synced[i]);
    EXPECT_DOUBLE_EQ(live.stats.bootstrap.offset_us[i],
                     batch.bootstrap.offset_us[i]);
  }

  // The equality extends through the link layer (reusing the
  // link_equality.h comparators): reconstructions over the two streams
  // must match field for field.
  ExpectLinkIdentical(ReconstructLink(live.jframes),
                      ReconstructLink(batch.jframes));
}

INSTANTIATE_TEST_SUITE_P(Threads, LiveVsBatch,
                         ::testing::Values(1u, 2u, 0u));

// ---------------------------------------------------------------------------
// Starved / uneven sources.

// One radio lags seconds of capture time behind the rest: the merge must
// stall at the laggard's watermark — no jframe may be emitted that a later
// record of the laggard could still have joined — and buffering must stay
// bounded while stalled.
TEST_F(LiveIngestTest, LaggingRadioStallsWatermarkWithoutPrematureEmission) {
  auto script = LiveScript::FromNetwork(MultiChannelNetwork(33).Build());
  const std::size_t n = script.size();
  constexpr std::size_t kLaggard = 0;  // channel 1, shared with radio 5

  TraceSetWriter writer(dir_);
  for (std::size_t i = 0; i < n; ++i) writer.AddRadio(script.headers[i]);
  std::vector<std::size_t> cursor(n, 0);

  // Everyone else writes everything; the laggard stops at 40%.
  std::vector<double> fraction(n, 1.0);
  fraction[kLaggard] = 0.4;
  AppendFractions(writer, script, cursor, fraction);

  TraceSet traces = TraceSet::FollowDirectory(dir_, n);
  MergeConfig cfg;
  cfg.threads = 2;
  std::vector<JFrame> streamed;
  MergeSession session(traces, cfg, [&](JFrame&& jf) {
    streamed.push_back(std::move(jf));
  });

  // Poll to quiescence: the session must report starvation, not completion.
  MergeSession::Status status = session.Poll();
  status = session.Poll();  // second poll: no writer activity in between
  EXPECT_EQ(status, MergeSession::Status::kStarved);

  // No premature emission: every emitted jframe must predate the point the
  // laggard's next record could reach.  Its clock offset is bounded by a
  // few ms and the pipeline adds at most the reorder horizon.
  const auto& lag_records = script.records[kLaggard];
  const LocalMicros lag_frontier = lag_records[cursor[kLaggard] - 1].timestamp;
  const UniversalMicros bound =
      static_cast<UniversalMicros>(lag_frontier) + 100'000;  // 100 ms slack
  for (const JFrame& jf : streamed) {
    ASSERT_LE(jf.timestamp, bound)
        << "jframe emitted past the lagging radio's watermark";
  }
  const std::size_t stalled_count = streamed.size();

  // Bounded retention while stalled: the non-lagging shards throttle at
  // the per-shard watermark instead of buffering their whole backlog.
  EXPECT_LE(session.retained_jframes(),
            3 * (kMergeQueueWatermark + 2048));

  // The laggard catches up and finalizes: the session completes and the
  // full stream equals the batch merge — the stall lost nothing.
  AppendFractions(writer, script, cursor, std::vector<double>(n, 1.0));
  writer.FinalizeAll();
  for (;;) {
    if (session.Poll() == MergeSession::Status::kDone) break;
  }
  EXPECT_GT(streamed.size(), stalled_count);

  // Completion hands the streams back to the caller's TraceSet even while
  // the session object (and its stats) are still alive.
  ASSERT_EQ(traces.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(traces.at(i).header().radio, script.headers[i].radio);
  }

  const MergeResult batch = BatchMerge(dir_);
  ExpectIdenticalStreams(streamed, batch.jframes);
}

// One radio finalizes early (half its capture): the merge must NOT stall
// on it — the finalize marker releases the watermark — and the result
// still equals the batch merge of the same files.
TEST_F(LiveIngestTest, EarlyFinalizingRadioReleasesWatermark) {
  auto script = LiveScript::FromNetwork(MultiChannelNetwork(44).Build());
  const std::size_t n = script.size();
  constexpr std::size_t kEarly = 3;  // channel 11

  TraceSetWriter writer(dir_);
  for (std::size_t i = 0; i < n; ++i) writer.AddRadio(script.headers[i]);
  std::vector<std::size_t> cursor(n, 0);

  // The early radio writes half of its records and finalizes immediately.
  std::vector<double> fraction(n, 0.25);
  fraction[kEarly] = 0.5;
  AppendFractions(writer, script, cursor, fraction);
  writer.Finalize(kEarly);

  TraceSet traces = TraceSet::FollowDirectory(dir_, n);
  MergeConfig cfg;
  cfg.threads = 2;
  std::vector<JFrame> streamed;
  MergeSession session(traces, cfg, [&](JFrame&& jf) {
    streamed.push_back(std::move(jf));
  });

  // Feed the rest in stepped chunks, polling in between: progress must
  // continue past the early radio's end-of-capture.
  for (double f : {0.5, 0.75, 1.0}) {
    session.Poll();
    std::vector<double> step(n, f);
    step[kEarly] = 0.5;  // finalized: nothing more may be appended
    AppendFractions(writer, script, cursor, step);
  }
  writer.FinalizeAll();
  for (;;) {
    if (session.Poll() == MergeSession::Status::kDone) break;
  }

  const MergeResult batch = BatchMerge(dir_);
  ASSERT_GT(batch.jframes.size(), 100u);
  ExpectIdenticalStreams(streamed, batch.jframes);
  ExpectEqualStats(session.stats(), batch.stats);
}

// A radio "joins" late: its file exists (header only) but carries no data
// until long after the others are fully written.  The session must hold in
// the bootstrap phase — zero emission, zero retention (the files are the
// buffer) — then bootstrap late and re-emit the stream from offset zero.
TEST_F(LiveIngestTest, LateJoiningRadioDefersBootstrapThenReplaysFromZero) {
  auto script = LiveScript::FromNetwork(MultiChannelNetwork(55).Build());
  const std::size_t n = script.size();
  constexpr std::size_t kLate = 1;  // channel 6

  TraceSetWriter writer(dir_);
  for (std::size_t i = 0; i < n; ++i) writer.AddRadio(script.headers[i]);
  std::vector<std::size_t> cursor(n, 0);

  std::vector<double> fraction(n, 1.0);
  fraction[kLate] = 0.0;  // header exists, no records yet
  AppendFractions(writer, script, cursor, fraction);

  TraceSet traces = TraceSet::FollowDirectory(dir_, n);
  MergeConfig cfg;
  cfg.threads = 0;
  std::size_t emitted = 0;
  std::vector<JFrame> streamed;
  MergeSession session(traces, cfg, [&](JFrame&& jf) {
    ++emitted;
    streamed.push_back(std::move(jf));
  });

  // No premature emission, ever: until the late radio's sync window fills,
  // the session stays in bootstrap and buffers nothing.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(session.Poll(), MergeSession::Status::kBootstrapping);
    EXPECT_EQ(emitted, 0u);
    EXPECT_EQ(session.retained_jframes(), 0u);
    EXPECT_FALSE(session.bootstrapped());
  }

  // The radio joins: data arrives and the writers finalize.  The session
  // bootstraps (late) and replays the merged stream from offset zero.
  AppendFractions(writer, script, cursor, std::vector<double>(n, 1.0));
  writer.FinalizeAll();
  for (;;) {
    if (session.Poll() == MergeSession::Status::kDone) break;
  }
  EXPECT_TRUE(session.bootstrapped());

  const MergeResult batch = BatchMerge(dir_);
  ASSERT_GT(batch.jframes.size(), 100u);
  ExpectIdenticalStreams(streamed, batch.jframes);
  // The late radio must have been synchronized, not dropped.
  EXPECT_TRUE(session.bootstrap().synced[kLate]);
}

// ---------------------------------------------------------------------------
// Tail-reader robustness: partial writes re-poll, the finalize marker ends
// the stream, and corruption surfaces as a clean error instead of a spin.

TEST_F(LiveIngestTest, PartialTrailingBlockIsNoDataYetNotEofOrCorruption) {
  const auto path = dir_ / "r7.jigt";
  TraceHeader header;
  header.radio = 7;

  // One published block of two records.
  CaptureRecord rec;
  rec.timestamp = 1'000;
  rec.rate = PhyRate::kB2;
  rec.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  rec.orig_len = 14;
  {
    TraceFileWriter writer(path, header);
    writer.Append(rec);
    rec.timestamp = 2'000;
    writer.Append(rec);
    writer.Sync();

    auto tail = TailFileTrace::TryOpen(path);
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->header().radio, 7);
    EXPECT_EQ(tail->Next()->timestamp, 1'000);
    EXPECT_EQ(tail->Next()->timestamp, 2'000);
    // Frontier reached mid-capture: no data yet, expressly NOT finalized.
    EXPECT_FALSE(tail->Next().has_value());
    EXPECT_FALSE(tail->Finalized());

    // A third record, but published only partially: first the length word
    // plus half the block body, by hand.
    rec.timestamp = 3'000;
    Bytes serialized;
    SerializeRecord(rec, 0, serialized);
    const Bytes packed = LzCompress(serialized);
    std::FILE* raw = std::fopen(path.string().c_str(), "ab");
    ASSERT_NE(raw, nullptr);
    const std::uint32_t len = static_cast<std::uint32_t>(packed.size());
    const std::uint8_t len_buf[4] = {
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 24)};
    std::fwrite(len_buf, 1, 4, raw);
    std::fwrite(packed.data(), 1, packed.size() / 2, raw);
    std::fflush(raw);

    // Still "no data yet": the half-written block must not read as EOF,
    // corruption, or (worst) a garbled record.
    EXPECT_FALSE(tail->Next().has_value());
    EXPECT_FALSE(tail->Finalized());

    // The writer completes the block: the record appears on re-poll.
    std::fwrite(packed.data() + packed.size() / 2,
                1, packed.size() - packed.size() / 2, raw);
    std::fflush(raw);
    const auto got = tail->Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->timestamp, 3'000);
    EXPECT_EQ(got->bytes, rec.bytes);
    EXPECT_FALSE(tail->Next().has_value());
    EXPECT_FALSE(tail->Finalized());

    // The explicit finalize marker ([u32 0]) ends the stream for good.
    const std::uint8_t terminator[4] = {0, 0, 0, 0};
    std::fwrite(terminator, 1, 4, raw);
    std::fflush(raw);
    std::fclose(raw);
    EXPECT_FALSE(tail->Next().has_value());
    EXPECT_TRUE(tail->Finalized());

    // Rewind replays the whole trace (the re-emit-from-zero path).
    tail->Rewind();
    EXPECT_EQ(tail->Next()->timestamp, 1'000);
    EXPECT_EQ(tail->Next()->timestamp, 2'000);
    EXPECT_EQ(tail->Next()->timestamp, 3'000);
  }
}

TEST_F(LiveIngestTest, BadMagicSurfacesCorruptionNotRetry) {
  const auto path = dir_ / "bad.jigt";
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  std::fwrite("NOTJIGSAW AT ALL", 1, 16, f);
  std::fclose(f);
  EXPECT_THROW(TailFileTrace::TryOpen(path), TraceCorruptError);
}

TEST_F(LiveIngestTest, TruncatedHeaderIsNotYetOpenableWithoutSpinOrThrow) {
  const auto path = dir_ / "r1.jigt";
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  std::fwrite("JIGT\x01\x00\x00\x00", 1, 8, f);  // magic+version, no header
  std::fclose(f);
  // Not corrupt, not readable: simply "try again later".
  EXPECT_EQ(TailFileTrace::TryOpen(path), nullptr);
}

TEST_F(LiveIngestTest, GarbageBlockLengthSurfacesCleanCorruptionError) {
  // Handcraft header + one valid block + an absurd block length word (what
  // a scribbled-on or bit-flipped capture looks like mid-stream).
  const auto path = dir_ / "r2.jigt";
  TraceHeader header;
  header.radio = 2;
  Bytes hdr;
  SerializeHeader(header, hdr);
  CaptureRecord rec;
  rec.timestamp = 500;
  rec.bytes = {1, 2, 3, 4};
  rec.orig_len = 4;
  Bytes serialized;
  SerializeRecord(rec, 0, serialized);
  const Bytes packed = LzCompress(serialized);

  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const auto put_u32 = [f](std::uint32_t v) {
    const std::uint8_t buf[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 24)};
    std::fwrite(buf, 1, 4, f);
  };
  std::fwrite(kTraceDataMagic, 1, 4, f);
  put_u32(kTraceVersion);
  put_u32(static_cast<std::uint32_t>(hdr.size()));
  std::fwrite(hdr.data(), 1, hdr.size(), f);
  put_u32(static_cast<std::uint32_t>(packed.size()));
  std::fwrite(packed.data(), 1, packed.size(), f);
  put_u32(0x7FFFFFFF);  // garbage block length
  std::fclose(f);

  auto tail = TailFileTrace::TryOpen(path);
  ASSERT_NE(tail, nullptr);
  ASSERT_TRUE(tail->Next().has_value());  // the valid record still reads
  // ... but the garbage length is a clean, non-retryable error.
  EXPECT_THROW(tail->Next(), TraceCorruptError);
}

}  // namespace
}  // namespace jig
