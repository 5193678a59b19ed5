// Always-on service pins (src/jigsaw/service.{h,cc}): checkpoint format,
// crash recovery, clean shutdown, and multi-deployment soak.
//
// The central contract extends the pipeline's determinism guarantee into
// the restart dimension: a monitor killed at ANY point (mid output write,
// between emit and checkpoint, between checkpoint and the next emit, with
// a torn trailing block) and restarted over the same state directory ends
// with an output log whose decoded jframe stream is byte-identical to the
// uninterrupted run's — across threads {1, 2, auto} and the merge spill
// tier on/off.  The kill points are injected with tests/fault_injection.h;
// nothing here sleeps or races a real signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault_injection.h"
#include "jframe_equality.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "obs/metrics.h"
#include "synthetic.h"
#include "trace/trace_set.h"
#include "util/byte_io.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::FaultyStream;
using testing::KillAfterAppend;
using testing::KillOnNthCall;
using testing::KillPoint;
using testing::MultiChannelNetwork;
using testing::TearFileTail;
using testing::WrapRadio;

constexpr std::size_t kRadios = 6;  // MultiChannelNetwork's deployment
constexpr int kMaxRounds = 200000;  // progress guard, not a timing knob

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("service_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Writes the synthetic deployment's traces (finalized) and returns the
  // directory.
  fs::path WriteTraces(std::uint64_t seed, TrueMicros duration = Seconds(2),
                       const std::string& subdir = "traces") {
    const fs::path traces = dir_ / subdir;
    MultiChannelNetwork(seed, duration).Build().WriteDirectory(traces);
    return traces;
  }

  DeploymentConfig Cfg(const std::string& name, const fs::path& traces,
                       unsigned threads = 1, bool spill = false) {
    DeploymentConfig c;
    c.name = name;
    c.trace_dir = traces;
    c.state_dir = dir_ / ("state-" + name);
    c.expected_traces = kRadios;
    c.merge.threads = threads;
    if (spill) {
      c.merge.spill_dir = c.state_dir / "merge-spill";
      c.merge.spill_threshold = 64;
    }
    // Small segments/blocks so rotation, torn tails, and retention all
    // engage on a two-second synthetic capture (whole log ~10-20 KiB).
    c.output_segment_bytes = 4u << 10;
    c.output_records_per_block = 16;
    return c;
  }

  fs::path dir_;
};

struct LogContents {
  std::vector<JFrame> jframes;
  Bytes bytes;  // SerializeJFrame of every jframe, concatenated in order
  std::vector<std::uint64_t> sequences;
};

LogContents ReadLog(const fs::path& state_dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> segs;
  for (const auto& entry : fs::directory_iterator(state_dir / "out")) {
    if (entry.path().extension() != ".jigs") continue;
    std::uint64_t seq = 0;
    sscanf(entry.path().filename().string().c_str(), "out-%" SCNu64 ".jigs",
           &seq);
    segs.emplace_back(seq, entry.path());
  }
  std::sort(segs.begin(), segs.end());
  LogContents out;
  for (const auto& [seq, path] : segs) {
    out.sequences.push_back(seq);
    SpillSegmentReader reader(path, /*strict=*/false);
    EXPECT_EQ(reader.header().sequence, seq);
    while (auto jf = reader.Next()) {
      SerializeJFrame(*jf, out.bytes);
      out.jframes.push_back(std::move(*jf));
    }
  }
  return out;
}

void RunToDone(DeploymentMonitor& m) {
  for (int i = 0; i < kMaxRounds; ++i) {
    if (m.PollOnce() == DeploymentMonitor::State::kDone) return;
  }
  FAIL() << "monitor " << m.name() << " never completed";
}

// Runs PollOnce until the injected KillPoint fires; the monitor must come
// out marked failed (its destructor then leaves crash-faithful state).
void RunUntilKilled(DeploymentMonitor& m) {
  for (int i = 0; i < kMaxRounds; ++i) {
    try {
      if (m.PollOnce() == DeploymentMonitor::State::kDone) {
        FAIL() << "monitor completed without hitting the kill point";
        return;
      }
    } catch (const KillPoint&) {
      EXPECT_EQ(m.state(), DeploymentMonitor::State::kFailed);
      return;
    }
  }
  FAIL() << "kill point never fired";
}

// ---------------------------------------------------------------------------
// Checkpoint format.

Checkpoint SampleCheckpoint() {
  Checkpoint cp;
  cp.deployment = "lab-floor2";
  cp.emitted = 12345;
  cp.active_sequence = 7;
  cp.active_base = 12000;
  cp.frontiers = {{0, 4096, true}, {1, 4097, false}, {9, 0, false}};
  cp.segments = {{5, 11000, 1'500'000, 32768, true},
                 {6, 11500, 1'600'000, 32768, true},
                 {7, 12000, 1'650'000, 4096, false}};
  return cp;
}

TEST_F(ServiceTest, CheckpointRoundtrip) {
  const fs::path path = dir_ / "cp.jigc";
  const Checkpoint cp = SampleCheckpoint();
  SaveCheckpoint(path, cp);
  const Checkpoint back = LoadCheckpoint(path);
  EXPECT_EQ(back.deployment, cp.deployment);
  EXPECT_EQ(back.emitted, cp.emitted);
  EXPECT_EQ(back.active_sequence, cp.active_sequence);
  EXPECT_EQ(back.active_base, cp.active_base);
  ASSERT_EQ(back.frontiers.size(), cp.frontiers.size());
  for (std::size_t i = 0; i < cp.frontiers.size(); ++i) {
    EXPECT_EQ(back.frontiers[i].radio, cp.frontiers[i].radio);
    EXPECT_EQ(back.frontiers[i].records_seen, cp.frontiers[i].records_seen);
    EXPECT_EQ(back.frontiers[i].finalized, cp.frontiers[i].finalized);
  }
  ASSERT_EQ(back.segments.size(), cp.segments.size());
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_EQ(back.segments[i].sequence, cp.segments[i].sequence);
    EXPECT_EQ(back.segments[i].base_index, cp.segments[i].base_index);
    EXPECT_EQ(back.segments[i].max_timestamp, cp.segments[i].max_timestamp);
    EXPECT_EQ(back.segments[i].bytes, cp.segments[i].bytes);
    EXPECT_EQ(back.segments[i].sealed, cp.segments[i].sealed);
  }
}

TEST_F(ServiceTest, CheckpointCorruptionIsDetected) {
  const fs::path path = dir_ / "cp.jigc";
  SaveCheckpoint(path, SampleCheckpoint());

  // Truncation (a torn checkpoint write can never exist — SaveCheckpoint
  // goes through an atomic rename — but a filesystem that lost the tail
  // must still be caught).
  fs::copy_file(path, dir_ / "short.jigc");
  fs::resize_file(dir_ / "short.jigc", 8);
  EXPECT_THROW(LoadCheckpoint(dir_ / "short.jigc"), TraceTruncatedError);

  // Bit rot anywhere flips the CRC.
  fs::copy_file(path, dir_ / "rot.jigc");
  {
    const auto size = fs::file_size(dir_ / "rot.jigc");
    std::FILE* f = std::fopen((dir_ / "rot.jigc").string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
    std::fputc('!', f);
    std::fclose(f);
  }
  EXPECT_THROW(LoadCheckpoint(dir_ / "rot.jigc"), TraceCorruptError);

  // A different format's file.
  fs::copy_file(path, dir_ / "magic.jigc");
  {
    std::FILE* f = std::fopen((dir_ / "magic.jigc").string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("JIGT", f);
    std::fclose(f);
  }
  EXPECT_THROW(LoadCheckpoint(dir_ / "magic.jigc"), TraceCorruptError);
}

// ---------------------------------------------------------------------------
// Fresh run: the durable log IS the merged stream.

TEST_F(ServiceTest, LogMatchesDirectMerge) {
  const fs::path traces = WriteTraces(41);

  // Reference: the plain batch merge over the same directory.
  Bytes expect_bytes;
  std::size_t expect_count = 0;
  {
    TraceSet set = TraceSet::OpenDirectory(traces);
    MergeConfig mcfg;
    MergeSession session(set, mcfg, [&](JFrame&& jf) {
      SerializeJFrame(jf, expect_bytes);
      ++expect_count;
    });
    session.Drain();
  }
  ASSERT_GT(expect_count, 100u);

  DeploymentMonitor monitor(Cfg("fresh", traces));
  RunToDone(monitor);
  EXPECT_EQ(monitor.jframes_persisted(), expect_count);
  EXPECT_FALSE(monitor.recovered_from_checkpoint());

  const LogContents log = ReadLog(dir_ / "state-fresh");
  EXPECT_EQ(log.bytes, expect_bytes);
  // Rotation engaged (tiny segments) and numbering is dense from zero.
  EXPECT_GT(log.sequences.size(), 1u);
  for (std::size_t i = 0; i < log.sequences.size(); ++i) {
    EXPECT_EQ(log.sequences[i], i);
  }
}

// ---------------------------------------------------------------------------
// Crash-recovery equivalence matrix.

struct MatrixParam {
  unsigned threads;
  bool spill;
};

class ServiceRecoveryMatrix
    : public ServiceTest,
      public ::testing::WithParamInterface<MatrixParam> {};

// Killed mid output write at a fixed jframe index, restarted, run to
// completion: the cumulative decoded log is byte-identical to the
// uninterrupted run's, for every threads x spill combination.
TEST_P(ServiceRecoveryMatrix, KillDuringOutputWriteThenRestart) {
  const auto [threads, spill] = GetParam();
  const fs::path traces = WriteTraces(42);

  DeploymentConfig base = Cfg("base", traces, threads, spill);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);
  ASSERT_GT(expect.jframes.size(), 300u);

  DeploymentConfig crash = Cfg("crash", traces, threads, spill);
  // Past the first block cut (16 records/block), so durable blocks and a
  // pending tail both exist at the kill.
  crash.hooks.after_output_append = KillAfterAppend(137);
  {
    DeploymentMonitor victim(crash);
    RunUntilKilled(victim);
  }  // destructor abandons the open segment, as SIGKILL would

  DeploymentConfig resume = Cfg("crash", traces, threads, spill);
  DeploymentMonitor restarted(resume);
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);

  const LogContents got = ReadLog(resume.state_dir);
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
  EXPECT_EQ(restarted.jframes_persisted(), expect.jframes.size());
  // What was durable at the kill (everything appended, minus at most one
  // uncut block the "SIGKILL" tore off) was suppressed, not re-emitted.
  EXPECT_LE(restarted.recovered_jframes(), 138u);
  EXPECT_GE(restarted.recovered_jframes(), 138u - 16u);
}

// Killed between emit and checkpoint: the log is AHEAD of the checkpoint
// table (jframes durable that no checkpoint mentions).  The restart must
// derive the durable count from the log itself, not the stale table.
TEST_P(ServiceRecoveryMatrix, KillBetweenEmitAndCheckpointThenRestart) {
  const auto [threads, spill] = GetParam();
  const fs::path traces = WriteTraces(42);

  DeploymentConfig base = Cfg("base", traces, threads, spill);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);

  DeploymentConfig crash = Cfg("crash", traces, threads, spill);
  // Call #1 is the constructor's checkpoint; #2 is the first one that
  // follows appends — killing BEFORE it leaves every durable jframe
  // unmentioned by any checkpoint.
  crash.hooks.before_checkpoint = KillOnNthCall("before checkpoint", 2);
  {
    DeploymentMonitor victim(crash);
    RunUntilKilled(victim);
  }

  DeploymentMonitor restarted(Cfg("crash", traces, threads, spill));
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);

  const LogContents got = ReadLog(dir_ / "state-crash");
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

// Killed right after a checkpoint landed: table and log agree, nothing
// new since.  Recovery must suppress exactly the durable count and
// continue — re-emitting or dropping even one jframe breaks identity.
TEST_P(ServiceRecoveryMatrix, KillBetweenCheckpointAndEmitThenRestart) {
  const auto [threads, spill] = GetParam();
  const fs::path traces = WriteTraces(42);

  DeploymentConfig base = Cfg("base", traces, threads, spill);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);

  DeploymentConfig crash = Cfg("crash", traces, threads, spill);
  crash.hooks.after_checkpoint = KillOnNthCall("after checkpoint", 2);
  {
    DeploymentMonitor victim(crash);
    RunUntilKilled(victim);
  }

  DeploymentMonitor restarted(Cfg("crash", traces, threads, spill));
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);

  const LogContents got = ReadLog(dir_ / "state-crash");
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

// A power cut can also tear the newest segment's trailing block AFTER the
// process died (lost page-cache tail).  Recovery's tail-mode read must
// stop at the last complete block, repair the segment, and resume from
// the reduced durable count — still byte-identical.
TEST_P(ServiceRecoveryMatrix, TornOutputTailRepairedOnRestart) {
  const auto [threads, spill] = GetParam();
  const fs::path traces = WriteTraces(42);

  DeploymentConfig base = Cfg("base", traces, threads, spill);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);

  DeploymentConfig crash = Cfg("crash", traces, threads, spill);
  crash.hooks.after_output_append = KillAfterAppend(137);
  {
    DeploymentMonitor victim(crash);
    RunUntilKilled(victim);
  }
  // Tear bytes off the newest segment — mid-block, so its last block no
  // longer parses and the tail read must discard it.
  std::vector<fs::path> segs;
  for (const auto& entry :
       fs::directory_iterator(dir_ / "state-crash" / "out")) {
    if (entry.path().extension() == ".jigs") segs.push_back(entry.path());
  }
  ASSERT_FALSE(segs.empty());
  const fs::path newest = *std::max_element(segs.begin(), segs.end());
  ASSERT_GT(fs::file_size(newest), 7u);
  TearFileTail(newest, 7);

  DeploymentMonitor restarted(Cfg("crash", traces, threads, spill));
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);

  const LogContents got = ReadLog(dir_ / "state-crash");
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

// Killed while READING a trace (mid merge consumption — with the spill
// dimension on, this lands amid spill-segment writes): the output writer
// is mid-stream with an uncut pending block.  Restart without the fault
// completes the identical stream.
TEST_P(ServiceRecoveryMatrix, KillDuringTraceReadThenRestart) {
  const auto [threads, spill] = GetParam();
  const fs::path traces = WriteTraces(42);

  DeploymentConfig base = Cfg("base", traces, threads, spill);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);

  DeploymentConfig crash = Cfg("crash", traces, threads, spill);
  {
    // Radio 2 dies at record #100 of its ~160-record capture — the merge
    // is mid-consumption, the output writer mid-stream.
    DeploymentMonitor victim(crash,
                             WrapRadio(2, {.kill_at = 100,
                                           .stall_at = std::nullopt,
                                           .delay_finalize = false}));
    RunUntilKilled(victim);
  }

  DeploymentMonitor restarted(Cfg("crash", traces, threads, spill));
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);

  const LogContents got = ReadLog(dir_ / "state-crash");
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBySpill, ServiceRecoveryMatrix,
    ::testing::Values(MatrixParam{1, false}, MatrixParam{2, false},
                      MatrixParam{0, false}, MatrixParam{1, true},
                      MatrixParam{2, true}, MatrixParam{0, true}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return "threads" + std::to_string(info.param.threads) +
             (info.param.spill ? "_spill" : "_nospill");
    });

// ---------------------------------------------------------------------------
// The output log's thread.

// Pass-through stream that counts every read, so a test can tell whether
// anything still reads the traces after PollOnce returned or threw.
class CountingStream final : public RecordStream {
 public:
  CountingStream(std::unique_ptr<RecordStream> inner,
                 std::atomic<std::uint64_t>& reads)
      : inner_(std::move(inner)), reads_(reads) {}
  const TraceHeader& header() const override { return inner_->header(); }
  std::optional<CaptureRecord> Next() override {
    const CaptureRecord* rec = NextRef();
    if (rec == nullptr) return std::nullopt;
    return *rec;
  }
  const CaptureRecord* NextRef() override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return inner_->NextRef();
  }
  void Rewind() override { inner_->Rewind(); }
  bool Finalized() const override { return inner_->Finalized(); }

 private:
  std::unique_ptr<RecordStream> inner_;
  std::atomic<std::uint64_t>& reads_;
};

class ServiceLogThread : public ServiceTest,
                         public ::testing::WithParamInterface<unsigned> {};

// The output log runs on the merge session's side thread, beside the
// analysis bus on the Poll thread.  A kill thrown by after_output_append
// on that thread, partway through a poll's output (the pipeline tests pin
// the batch-level join): PollOnce rethrows it,
// nothing reads a trace or appends to the log afterwards, and a restart
// completes a log byte-identical to the uninterrupted run's.
TEST_P(ServiceLogThread, KillOnLogThreadMidPollThenRestart) {
  const unsigned threads = GetParam();
  const fs::path traces = WriteTraces(42);
  constexpr std::uint64_t kKillAt = 137;

  DeploymentConfig base = Cfg("base", traces, threads);
  base.analysis = true;
  std::vector<std::uint64_t> persisted_per_poll;
  {
    DeploymentMonitor baseline(base);
    for (int i = 0; i < kMaxRounds; ++i) {
      const auto state = baseline.PollOnce();
      persisted_per_poll.push_back(baseline.jframes_persisted());
      if (state == DeploymentMonitor::State::kDone) break;
    }
    ASSERT_EQ(baseline.state(), DeploymentMonitor::State::kDone);
  }
  const LogContents expect = ReadLog(base.state_dir);
  ASSERT_GT(expect.jframes.size(), 300u);
  // No poll ends right after jframe #kKillAt, so the kill lands while the
  // session still has more of that poll's output to hand out.
  EXPECT_TRUE(std::any_of(
      persisted_per_poll.begin(), persisted_per_poll.end(),
      [](std::uint64_t n) { return n > kKillAt + 1; }));
  EXPECT_FALSE(std::any_of(
      persisted_per_poll.begin(), persisted_per_poll.end(),
      [](std::uint64_t n) { return n == kKillAt + 1; }));

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> appends{0};
  std::atomic<bool> on_poll_thread{false};
  const std::thread::id poll_thread = std::this_thread::get_id();
  DeploymentConfig crash = Cfg("crash", traces, threads);
  crash.analysis = true;
  crash.hooks.after_output_append = [&](std::uint64_t index) {
    appends.fetch_add(1);
    if (std::this_thread::get_id() == poll_thread) on_poll_thread = true;
    if (index == kKillAt) {
      throw KillPoint("log thread, append #" + std::to_string(index));
    }
  };
  {
    DeploymentMonitor victim(
        crash, [&reads](std::unique_ptr<RecordStream> inner, std::uint32_t) {
          return std::make_unique<CountingStream>(std::move(inner), reads);
        });
    RunUntilKilled(victim);
    EXPECT_EQ(appends.load(), kKillAt + 1);
    const std::uint64_t reads_at_throw = reads.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(reads.load(), reads_at_throw);
    EXPECT_EQ(appends.load(), kKillAt + 1);
  }
  EXPECT_FALSE(on_poll_thread.load());

  DeploymentConfig resume = Cfg("crash", traces, threads);
  resume.analysis = true;
  DeploymentMonitor restarted(resume);
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);
  const LogContents got = ReadLog(resume.state_dir);
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServiceLogThread,
                         ::testing::Values(1u, 2u, 0u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Clean shutdown (the SIGTERM door).

// Shutdown() mid-stream publishes the pending block and checkpoints; a
// restart over that state resumes the stream where it stopped and the
// cumulative log is byte-identical to an uninterrupted run.
TEST_F(ServiceTest, CleanShutdownThenRestartResumesSameStream) {
  const fs::path traces = WriteTraces(43);

  DeploymentConfig base = Cfg("base", traces);
  DeploymentMonitor baseline(base);
  RunToDone(baseline);
  const LogContents expect = ReadLog(base.state_dir);

  std::uint64_t at_shutdown = 0;
  {
    // Radio 1 stalls at record 80 of its ~160-record capture like a
    // lagging writer, so the monitor is genuinely mid-stream (some
    // jframes emitted, more to come) when the shutdown lands.
    DeploymentConfig first = Cfg("svc", traces);
    DeploymentMonitor m(first, WrapRadio(1, {.kill_at = std::nullopt,
                                             .stall_at = 80,
                                             .delay_finalize = false}));
    for (int i = 0; i < kMaxRounds && m.jframes_persisted() == 0; ++i) {
      ASSERT_NE(m.PollOnce(), DeploymentMonitor::State::kDone)
          << "stalled radio must keep the monitor mid-stream";
    }
    ASSERT_GT(m.jframes_persisted(), 0u);
    m.Shutdown();
    at_shutdown = m.jframes_persisted();
  }  // clean destructor: the open segment seals

  DeploymentMonitor restarted(Cfg("svc", traces));
  EXPECT_TRUE(restarted.recovered_from_checkpoint());
  RunToDone(restarted);
  EXPECT_EQ(restarted.recovered_jframes(), at_shutdown);

  const LogContents got = ReadLog(dir_ / "state-svc");
  EXPECT_EQ(got.bytes, expect.bytes);
  testing::ExpectIdenticalStreams(got.jframes, expect.jframes);
}

// ---------------------------------------------------------------------------
// Service-level multiplexing.

// One deployment's escaped error (an injected kill) must not take its
// siblings down: the service marks it failed, counts it, and the others
// run to completion.
TEST_F(ServiceTest, ServiceIsolatesAFailingDeployment) {
  const fs::path traces = WriteTraces(44);
  const std::int64_t failures_before = obs::MetricRegistry::Global()
                                           .Collect()
                                           .Value("jig_service_deployment_failures_total");

  MonitorService service;
  DeploymentConfig bad = Cfg("bad", traces);
  bad.hooks.after_output_append = KillAfterAppend(10);
  service.AddDeployment(std::move(bad));
  service.AddDeployment(Cfg("good-a", traces));
  service.AddDeployment(Cfg("good-b", traces));

  for (int i = 0; i < kMaxRounds && service.PollOnce() > 0; ++i) {
  }
  EXPECT_EQ(service.monitor(0).state(), DeploymentMonitor::State::kFailed);
  EXPECT_EQ(service.monitor(1).state(), DeploymentMonitor::State::kDone);
  EXPECT_EQ(service.monitor(2).state(), DeploymentMonitor::State::kDone);
  EXPECT_EQ(obs::MetricRegistry::Global().Collect().Value(
                "jig_service_deployment_failures_total"),
            failures_before + 1);
  // The snapshot exposes all three, the failed one labeled as such.
  const std::string json = service.SnapshotJson();
  EXPECT_NE(json.find("\"name\":\"bad\",\"state\":\"failed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"good-a\",\"state\":\"done\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Soak: many deployments, churn, bounded retention.

// 64 deployments multiplexed through one MonitorService, with churn —
// radios that lag (stall mid-stream), radios whose peers finalize early
// (delayed finalize markers), and deployments whose last radio joins
// late — while rolling retention keeps every deployment's bytes-on-disk
// and the merge's retained-jframe gauge under their configured bounds
// for the WHOLE run, not just at the end.
TEST_F(ServiceTest, SoakManyDeploymentsChurnBoundedRetention) {
  constexpr std::size_t kDeployments = 64;
  constexpr std::uint64_t kByteCap = 16u << 10;
  constexpr std::uint64_t kSegmentBytes = 4u << 10;
  // The merge's own bounded-retention watermark dominates this: the
  // reorder horizon plus shard queues stay well under the capture size.
  constexpr std::uint64_t kRetainedCap = 4096;

  // Four distinct synthetic captures, shared round-robin.
  std::vector<fs::path> shared;
  for (int i = 0; i < 4; ++i) {
    shared.push_back(WriteTraces(100 + static_cast<std::uint64_t>(i),
                                 Seconds(1), "cap" + std::to_string(i)));
  }

  MonitorService service;
  std::vector<FaultyStream*> faulty(kDeployments, nullptr);
  // Late joiners: (hidden source file, destination) pairs to copy mid-run.
  std::vector<std::pair<fs::path, fs::path>> joins;

  for (std::size_t i = 0; i < kDeployments; ++i) {
    const fs::path& capture = shared[i % shared.size()];
    fs::path tdir = capture;
    DeploymentMonitor::StreamWrapper wrapper;
    switch (i % 4) {
      case 1:  // a lagging radio: parks mid-stream until released
        wrapper = WrapRadio(static_cast<std::uint32_t>(i % kRadios),
                            {.kill_at = std::nullopt,
                             .stall_at = 40,
                             .delay_finalize = false},
                            &faulty[i]);
        break;
      case 2:  // its peers finalize early; this radio's marker lags
        wrapper = WrapRadio(static_cast<std::uint32_t>(i % kRadios),
                            {.kill_at = std::nullopt,
                             .stall_at = std::nullopt,
                             .delay_finalize = true},
                            &faulty[i]);
        break;
      case 3: {  // the last radio joins only mid-run
        tdir = dir_ / ("join" + std::to_string(i));
        fs::create_directories(tdir);
        bool held = false;
        for (const auto& entry : fs::directory_iterator(capture)) {
          if (entry.path().extension() == ".jigt" && !held) {
            joins.emplace_back(entry.path(),
                               tdir / entry.path().filename());
            held = true;
          } else {
            fs::copy_file(entry.path(), tdir / entry.path().filename());
          }
        }
        ASSERT_TRUE(held);
        break;
      }
      default:
        break;
    }
    // Appended, not `"d" + std::to_string(i)`: gcc 12 inlines that
    // operator+ into a -Wrestrict false positive (GCC bug 105329).
    std::string name = "d";
    name += std::to_string(i);
    DeploymentConfig cfg = Cfg(name, tdir);
    cfg.retention_window_us = 300'000;
    cfg.max_output_bytes = kByteCap;
    service.AddDeployment(std::move(cfg), std::move(wrapper));
  }
  ASSERT_EQ(service.deployments(), kDeployments);

  bool joined = false;
  bool released = false;
  int rounds = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    const std::size_t active = service.PollOnce();
    // Bounds hold EVERY round, not just at the end.
    for (std::size_t i = 0; i < kDeployments; ++i) {
      DeploymentMonitor& m = service.monitor(i);
      ASSERT_LE(m.output_bytes_on_disk(), kByteCap + kSegmentBytes)
          << "deployment " << m.name() << " round " << rounds;
      ASSERT_LE(m.Status().retained_jframes, kRetainedCap)
          << "deployment " << m.name() << " round " << rounds;
      ASSERT_NE(m.state(), DeploymentMonitor::State::kFailed);
    }
    if (rounds == 20 && !joined) {
      for (const auto& [src, dst] : joins) fs::copy_file(src, dst);
      joined = true;
    }
    if (rounds == 40 && !released) {
      for (FaultyStream* f : faulty) {
        if (f != nullptr) f->Release();
      }
      released = true;
    }
    if (active == 0 && joined && released) break;
  }
  ASSERT_LT(rounds, kMaxRounds) << "soak never converged";

  for (std::size_t i = 0; i < kDeployments; ++i) {
    DeploymentMonitor& m = service.monitor(i);
    EXPECT_EQ(m.state(), DeploymentMonitor::State::kDone) << m.name();
    EXPECT_GT(m.jframes_persisted(), 0u) << m.name();
    // Retention pruned the log: the survivor set decodes cleanly and
    // stays under the cap.
    const fs::path state = dir_ / ("state-d" + std::to_string(i));
    const LogContents log = ReadLog(state);
    EXPECT_FALSE(log.jframes.empty()) << m.name();
    EXPECT_LE(m.output_bytes_on_disk(), kByteCap + kSegmentBytes);
  }
  // The per-deployment gauges the exposition carries agree with the
  // monitors' own accounting (spot-check one label), and the caps were
  // live constraints, not slack: retention actually deleted segments.
  const auto snap = obs::MetricRegistry::Global().Collect();
  EXPECT_EQ(snap.Value("jig_service_output_bytes", "deployment=\"d0\""),
            static_cast<std::int64_t>(
                service.monitor(0).output_bytes_on_disk()));
  std::int64_t deletes = 0;
  for (const auto& s : snap.samples) {
    if (s.name == "jig_service_retention_deleted_segments_total") {
      deletes += s.value;
    }
  }
  EXPECT_GT(deletes, 0);
}

}  // namespace
}  // namespace jig
