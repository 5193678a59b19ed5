// Merge-pipeline tests: configuration validation, shard-mergeable stats,
// channel partitioning, and the determinism contract — every `threads`
// setting must emit the stream pinned by the committed golden digests
// below, byte for byte.
#include "jigsaw/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "jframe_equality.h"
#include "sim/scenario.h"
#include "synthetic.h"

namespace jig {
namespace {

using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;
using testing::StreamDigest;

// Golden merged streams, recorded from the original single-threaded merge
// (one global unifier and reorder buffer): every thread setting must
// reproduce them, so the merge engine is checked against history, not only
// against itself.  The digest is StreamDigest, equal in Release and -O1.
struct GoldenStream {
  std::uint64_t seed;
  std::size_t jframes;
  std::uint64_t events_in;
  std::uint64_t digest;
};

// MultiChannelNetwork(seed).Build().
constexpr GoldenStream kNetworkGolden[] = {
    {1, 1253, 2340, 0xd1dfe4c9d88460a5ull},
    {2, 1253, 2334, 0x3c5f6ce3f7ea0181ull},
    {3, 1263, 2360, 0xbc8ccb43c23fc6e6ull},
    {11, 1279, 2387, 0xa775a9aba8a71131ull},
    {17, 1276, 2396, 0x17b3ecf9a9aa054dull},
    {21, 1265, 2369, 0x75a0384603bd2894ull},
};

// The 2 s full-simulator scenario of ScenarioStreamMatchesLegacy.
constexpr GoldenStream kScenarioGolden = {77, 885, 1682,
                                          0x4e168dd5d68ee60bull};

// MultiChannelNetwork(23, Seconds(60)).Build(): long enough that every
// shard passes kMergeQueueWatermark, so rounds fill queues to the cap and
// merge passes stop at the staging cap.  Recorded from the merge that
// alternated rounds and emission, where every thread setting agreed.
constexpr GoldenStream kLongNetworkGolden = {23, 15273, 28580,
                                             0xd75c45e9e88f17ccull};
constexpr TrueMicros kLongNetworkDuration = Seconds(60);

const GoldenStream& NetworkGolden(std::uint64_t seed) {
  for (const GoldenStream& g : kNetworkGolden) {
    if (g.seed == seed) return g;
  }
  throw std::invalid_argument("no golden stream for seed " +
                              std::to_string(seed));
}

void ExpectGolden(const GoldenStream& golden,
                  const std::vector<JFrame>& jframes,
                  const UnifyStats& stats) {
  EXPECT_EQ(jframes.size(), golden.jframes);
  EXPECT_EQ(stats.jframes, golden.jframes);
  EXPECT_EQ(stats.events_in, golden.events_in);
  EXPECT_EQ(StreamDigest(jframes), golden.digest)
      << std::hex << "0x" << StreamDigest(jframes);
}

void ExpectGolden(const GoldenStream& golden, const MergeResult& result) {
  ExpectGolden(golden, result.jframes, result.stats);
}

// Serves an in-memory trace as a live source: only the first `released`
// records are readable (Finalized() once all are), and every read bumps a
// counter shared by the whole set, so a test can see whether any worker
// still reads after Poll() returned.  `read_delay` slows every read down,
// so a round in flight stays visible for a while.
class GatedCountingStream final : public RecordStream {
 public:
  GatedCountingStream(const MemoryTrace& source,
                      std::atomic<std::uint64_t>& reads,
                      std::chrono::microseconds read_delay)
      : header_(source.header()),
        records_(source.records()),
        reads_(reads),
        read_delay_(read_delay) {}

  const TraceHeader& header() const override { return header_; }
  std::optional<CaptureRecord> Next() override {
    const CaptureRecord* rec = NextRef();
    if (rec == nullptr) return std::nullopt;
    return *rec;
  }
  const CaptureRecord* NextRef() override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    const auto until = std::chrono::steady_clock::now() + read_delay_;
    while (std::chrono::steady_clock::now() < until) {
    }
    if (pos_ >= std::min(released_, records_.size())) return nullptr;
    return &records_[pos_++];
  }
  void Rewind() override { pos_ = 0; }
  bool Finalized() const override { return released_ >= records_.size(); }

  // Only between polls: the workers read `released_` during a round.
  void Release(double fraction) {
    released_ = static_cast<std::size_t>(
        fraction * static_cast<double>(records_.size()));
  }

 private:
  TraceHeader header_;
  std::vector<CaptureRecord> records_;
  std::atomic<std::uint64_t>& reads_;
  std::chrono::microseconds read_delay_;
  std::size_t pos_ = 0;
  std::size_t released_ = std::numeric_limits<std::size_t>::max();
};

// `network` with every trace behind a GatedCountingStream.
TraceSet GatedCounting(TraceSet network, std::atomic<std::uint64_t>& reads,
                       std::vector<GatedCountingStream*>* streams = nullptr,
                       std::chrono::microseconds read_delay = {}) {
  TraceSet set;
  for (std::size_t i = 0; i < network.size(); ++i) {
    auto stream = std::make_unique<GatedCountingStream>(
        dynamic_cast<const MemoryTrace&>(network.at(i)), reads, read_delay);
    if (streams != nullptr) streams->push_back(stream.get());
    set.Add(std::move(stream));
  }
  return set;
}

// True if no stream was read during a pause long enough for a worker
// that outlived Poll() to show itself.
bool NoReadsDuringPause(const std::atomic<std::uint64_t>& reads) {
  const std::uint64_t before = reads.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return reads.load() == before;
}

TEST(MergeConfigValidation, RejectsHorizonNotExceedingSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = Milliseconds(10);
  cfg.reorder_horizon = Milliseconds(10);  // == window: out-of-order hazard
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
  EXPECT_THROW(MergeTracesStreaming(empty, cfg, [](JFrame&&) {}),
               std::invalid_argument);
  cfg.reorder_horizon = Milliseconds(5);  // < window
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, RejectsNonPositiveSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = 0;
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, AcceptsDefaultAndWideConfigs) {
  MergeConfig cfg;
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
  cfg.unifier.search_window = Milliseconds(100);
  cfg.reorder_horizon = Milliseconds(200);
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
}

TEST(UnifyStatsTest, OperatorPlusEqualsSumsEveryCounter) {
  UnifyStats a;
  a.events_in = 10;
  a.valid_in = 8;
  a.fcs_error_in = 1;
  a.phy_error_in = 1;
  a.events_unified = 7;
  a.jframes = 4;
  a.error_instances_attached = 1;
  a.error_events_dropped = 2;
  a.resyncs = 3;
  UnifyStats b = a;
  b.events_in = 5;
  b.jframes = 2;
  a += b;
  EXPECT_EQ(a.events_in, 15u);
  EXPECT_EQ(a.valid_in, 16u);
  EXPECT_EQ(a.fcs_error_in, 2u);
  EXPECT_EQ(a.phy_error_in, 2u);
  EXPECT_EQ(a.events_unified, 14u);
  EXPECT_EQ(a.jframes, 6u);
  EXPECT_EQ(a.error_instances_attached, 2u);
  EXPECT_EQ(a.error_events_dropped, 4u);
  EXPECT_EQ(a.resyncs, 6u);
  EXPECT_DOUBLE_EQ(a.EventsPerJframe(), 14.0 / 6.0);
}

TEST(UnifyStatsTest, ShardMergedStatsEqualSinglePass) {
  // The sharded path sums per-shard UnifyStats with operator+=; the sum
  // must equal the counts of the single-queue pass the golden row was
  // recorded from.
  const GoldenStream& golden = NetworkGolden(11);
  auto traces = MultiChannelNetwork(golden.seed).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  ExpectGolden(golden, MergeTraces(traces, cfg));
}

TEST(BootstrapResultTest, SliceThenMergeReassembles) {
  BootstrapResult full;
  full.offset_us = {1.0, 2.0, 3.0, 4.0};
  full.synced = {true, false, true, true};
  full.reference_frames_considered = 40;
  full.sync_set_size = 3;
  full.max_bfs_depth = 2;

  BootstrapResult merged = full.Slice({0, 2});
  merged += full.Slice({1, 3});
  ASSERT_EQ(merged.offset_us.size(), 4u);
  EXPECT_EQ(merged.offset_us, (std::vector<double>{1.0, 3.0, 2.0, 4.0}));
  EXPECT_EQ(merged.synced, (std::vector<bool>{true, true, false, true}));
  EXPECT_EQ(merged.SyncedCount(), 3u);
  EXPECT_EQ(merged.reference_frames_considered, 80u);
  EXPECT_EQ(merged.max_bfs_depth, 2);
}

TEST(TraceSetPartition, RoundTripsThroughShards) {
  auto traces = MultiChannelNetwork(5).Build();
  ASSERT_EQ(traces.size(), 6u);
  std::vector<RadioId> original_radios;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    original_radios.push_back(traces.at(i).header().radio);
  }

  auto shards = traces.PartitionByChannel();
  EXPECT_TRUE(traces.empty());
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].channel, Channel::kCh1);
  EXPECT_EQ(shards[1].channel, Channel::kCh6);
  EXPECT_EQ(shards[2].channel, Channel::kCh11);
  for (const auto& shard : shards) {
    ASSERT_EQ(shard.traces.size(), 2u);
    ASSERT_EQ(shard.source_index.size(), 2u);
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      EXPECT_EQ(shard.traces.at(i).header().channel, shard.channel);
      EXPECT_EQ(shard.traces.at(i).header().radio,
                original_radios[shard.source_index[i]]);
    }
  }

  traces.AdoptShards(std::move(shards));
  ASSERT_EQ(traces.size(), 6u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces.at(i).header().radio, original_radios[i]);
  }
}

// The determinism contract across >= 3 seeded multi-channel scenarios:
// every thread setting produces the golden stream.
class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  const GoldenStream& golden = NetworkGolden(GetParam());
  auto base_traces = MultiChannelNetwork(golden.seed).Build();
  const auto base = MergeTraces(base_traces);  // threads = 1
  ASSERT_GT(base.jframes.size(), 100u);
  ExpectGolden(golden, base);

  for (unsigned threads : {2u, 3u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto traces = MultiChannelNetwork(golden.seed).Build();
    MergeConfig cfg;
    cfg.threads = threads;
    const auto parallel = MergeTraces(traces, cfg);
    ExpectGolden(golden, parallel);
    ExpectEqualStats(base.stats, parallel.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(1u, 2u, 3u, 17u));

// The observability contract: metrics are write-only from the pipeline's
// point of view, so toggling the registry on/off must not change a single
// emitted byte — with the inline worker or with a pool.
TEST(MetricsDeterminism, StreamIsByteIdenticalWithMetricsToggled) {
  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MergeConfig cfg;
    cfg.threads = threads;

    obs::SetEnabled(true);
    auto on_traces = MultiChannelNetwork(7).Build();
    const auto with_metrics = MergeTraces(on_traces, cfg);
    ASSERT_GT(with_metrics.jframes.size(), 100u);

    obs::SetEnabled(false);
    auto off_traces = MultiChannelNetwork(7).Build();
    const auto without_metrics = MergeTraces(off_traces, cfg);
    obs::SetEnabled(true);

    ExpectIdenticalStreams(with_metrics.jframes, without_metrics.jframes);
    ExpectEqualStats(with_metrics.stats, without_metrics.stats);
  }
}

TEST(ParallelMerge, ScenarioStreamMatchesLegacy) {
  // End-to-end on the full simulator (39-pod channel plan 1/6/1/11): both
  // the default and the auto thread setting reproduce the golden stream.
  // Both run over one trace set, so the set must be usable again after a
  // merge (the channel partition is reversed internally).
  ScenarioConfig cfg;
  cfg.seed = kScenarioGolden.seed;
  cfg.duration = Seconds(2);
  cfg.clients = 10;
  cfg.pods_enabled = 6;
  Scenario scenario(cfg);
  scenario.Run();
  auto traces = scenario.TakeTraces();

  const auto single = MergeTraces(traces);
  ASSERT_GT(single.jframes.size(), 500u);
  ExpectGolden(kScenarioGolden, single);
  MergeConfig pcfg;
  pcfg.threads = 0;  // auto
  const auto parallel = MergeTraces(traces, pcfg);
  ExpectGolden(kScenarioGolden, parallel);
  ExpectEqualStats(single.stats, parallel.stats);
}

// The performance-knob matrix: mmap'd trace reads, worker pinning and
// thread count are pure speed knobs — every combination must emit the
// golden stream, byte for byte.  The traces go through a .jigt round trip
// so the mmap'd read path is actually exercised; pinning only nails
// workers to CPUs, and the round barrier fixes the merge order wherever
// they run.
TEST(PerfKnobMatrix, ByteIdenticalAcrossMmapPinThreads) {
  namespace fs = std::filesystem;
  const GoldenStream& golden = NetworkGolden(21);
  auto mem_traces = MultiChannelNetwork(golden.seed).Build();
  const fs::path dir =
      fs::temp_directory_path() / "jig_pipeline_knob_matrix";
  fs::remove_all(dir);
  mem_traces.WriteDirectory(dir);

  for (bool use_mmap : {false, true}) {
    for (bool pin : {false, true}) {
      for (unsigned threads : {1u, 2u, 0u}) {
        SCOPED_TRACE("mmap=" + std::to_string(use_mmap) + " pin=" +
                     std::to_string(pin) + " threads=" +
                     std::to_string(threads));
        TraceReadOptions opts;
        opts.use_mmap = use_mmap;
        TraceSet traces = TraceSet::OpenDirectory(dir, opts);
        ASSERT_EQ(traces.size(), mem_traces.size());
        MergeConfig cfg;
        cfg.threads = threads;
        cfg.pin_threads = pin;
        ExpectGolden(golden, MergeTraces(traces, cfg));
      }
    }
  }
  fs::remove_all(dir);
  // The pinning path must report rejected affinity calls instead of
  // swallowing the return value: the failure counter is registered (even if
  // zero on an unrestricted machine), so a cpuset-restricted deployment can
  // tell "pinned" from "silently fell back".
  const auto snapshot = obs::MetricRegistry::Global().Collect();
  ASSERT_NE(snapshot.Find("jig_pipeline_pin_failures_total"), nullptr);
  EXPECT_GE(snapshot.Value("jig_pipeline_pin_failures_total"), 0);
}

TEST(ParallelMerge, SinkRunsOnCallingThread) {
  auto traces = MultiChannelNetwork(9).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  const auto caller = std::this_thread::get_id();
  std::size_t delivered = 0;
  bool all_on_caller = true;
  MergeTracesStreaming(traces, cfg, [&](JFrame&&) {
    ++delivered;
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_GT(delivered, 100u);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelMerge, SinkExceptionPropagatesAndAbortsWorkers) {
  auto traces = MultiChannelNetwork(13).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  std::size_t delivered = 0;
  EXPECT_THROW(MergeTracesStreaming(traces, cfg,
                                    [&](JFrame&&) {
                                      if (++delivered == 10) {
                                        throw std::runtime_error("sink");
                                      }
                                    }),
               std::runtime_error);
  EXPECT_EQ(delivered, 10u);

  // Partway through a staged batch, while the workers run the next round:
  // on the long scenario the sink throws at the first delivery after
  // which a worker has read a trace since the previous one — proof that a
  // round with work is in flight.  The round is joined before the
  // exception leaves Poll(): nothing reads the traces afterwards.
  std::atomic<std::uint64_t> reads{0};
  TraceSet gated = GatedCounting(
      MultiChannelNetwork(kLongNetworkGolden.seed, kLongNetworkDuration)
          .Build(),
      reads, nullptr, std::chrono::microseconds(2));
  delivered = 0;
  std::uint64_t reads_at_last_delivery = 0;
  MergeSession session(gated, cfg, [&](JFrame&&) {
    const std::uint64_t now = reads.load();
    if (++delivered > 1 && now != reads_at_last_delivery) {
      throw std::runtime_error("sink");
    }
    reads_at_last_delivery = now;
  });
  EXPECT_THROW(session.Poll(), std::runtime_error);
  EXPECT_LT(delivered, kLongNetworkGolden.jframes);
  EXPECT_TRUE(NoReadsDuringPause(reads));
  EXPECT_THROW(session.Poll(), std::logic_error);  // a failed session stays so
}

// Poll() returns with no round in flight and nothing staged — the cut a
// checkpoint is taken at.  The sources grow between polls, so every poll
// but the last returns kBootstrapping or kStarved mid-stream; after each
// return no stream may be read, and the cumulative stream is the golden
// one.
TEST(ParallelMerge, PollReturnsQuiescent) {
  for (unsigned threads : {2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<std::uint64_t> reads{0};
    std::vector<GatedCountingStream*> streams;
    TraceSet gated = GatedCounting(
        MultiChannelNetwork(kLongNetworkGolden.seed, kLongNetworkDuration)
            .Build(),
        reads, &streams);
    MergeConfig cfg;
    cfg.threads = threads;
    std::vector<JFrame> out;
    MergeSession session(gated, cfg,
                         [&out](JFrame&& jf) { out.push_back(std::move(jf)); });
    std::size_t starved_polls = 0;
    for (int step = 1; step <= 10; ++step) {
      for (GatedCountingStream* s : streams) s->Release(step / 10.0);
      const MergeSession::Status status = session.Poll();
      EXPECT_TRUE(NoReadsDuringPause(reads)) << "step " << step;
      EXPECT_EQ(session.retained_jframes() == 0,
                status == MergeSession::Status::kDone);
      if (status == MergeSession::Status::kStarved) ++starved_polls;
      EXPECT_EQ(status == MergeSession::Status::kDone, step == 10);
    }
    EXPECT_GT(starved_polls, 0u);
    ExpectGolden(kLongNetworkGolden, out, session.stats());
  }
}

// The consumer slower than the workers: the sink spins on every jframe,
// so each round ends long before its staged batch is drained.  The sources
// grow in steps, so merge passes stop at starved shards and, with the
// spill tier forced (threshold 1), the other shards' lag rides the disk
// while a batch is in flight.  Beside it, the same long scenario as a
// plain batch merge.  Every thread setting must emit the golden stream.
class SlowSinkDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(SlowSinkDeterminism, ByteIdenticalWithSpillForced) {
  namespace fs = std::filesystem;
  const unsigned threads = GetParam();
  for (bool slow : {false, true}) {
    SCOPED_TRACE(slow ? "slow sink, spill forced" : "plain sink");
    std::atomic<std::uint64_t> reads{0};
    std::vector<GatedCountingStream*> streams;
    TraceSet traces = GatedCounting(
        MultiChannelNetwork(kLongNetworkGolden.seed, kLongNetworkDuration)
            .Build(),
        reads, &streams);
    MergeConfig cfg;
    cfg.threads = threads;
    const fs::path dir = fs::temp_directory_path() /
                         ("jig_pipeline_slow_sink_" + std::to_string(threads));
    if (slow) {
      fs::remove_all(dir);
      cfg.spill_dir = dir;
      cfg.spill_threshold = 1;
    }
    std::vector<JFrame> out;
    MergeSession session(traces, cfg, [&](JFrame&& jf) {
      if (slow) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      out.push_back(std::move(jf));
    });
    const int steps = slow ? 8 : 1;
    for (int step = 1; step < steps; ++step) {
      for (GatedCountingStream* s : streams) {
        s->Release(static_cast<double>(step) / steps);
      }
      ASSERT_NE(session.Poll(), MergeSession::Status::kDone);
    }
    for (GatedCountingStream* s : streams) s->Release(1.0);
    ASSERT_EQ(session.Poll(), MergeSession::Status::kDone);
    ExpectGolden(kLongNetworkGolden, out, session.stats());
    EXPECT_EQ(session.retained_jframes(), 0u);
    if (slow) {
      EXPECT_GT(session.spilled_jframes(), 0u);
      EXPECT_EQ(session.spill_bytes_on_disk(), 0u);
      fs::remove_all(dir);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SlowSinkDeterminism,
                         ::testing::Values(1u, 2u, 0u));

}  // namespace
}  // namespace jig
