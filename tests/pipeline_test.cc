// Merge-pipeline tests: configuration validation, shard-mergeable stats,
// channel partitioning, and the determinism contract — every `threads`
// setting must emit the stream pinned by the committed golden digests
// below, byte for byte.
#include "jigsaw/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
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

const GoldenStream& NetworkGolden(std::uint64_t seed) {
  for (const GoldenStream& g : kNetworkGolden) {
    if (g.seed == seed) return g;
  }
  throw std::invalid_argument("no golden stream for seed " +
                              std::to_string(seed));
}

void ExpectGolden(const GoldenStream& golden, const MergeResult& result) {
  EXPECT_EQ(result.jframes.size(), golden.jframes);
  EXPECT_EQ(result.stats.jframes, golden.jframes);
  EXPECT_EQ(result.stats.events_in, golden.events_in);
  EXPECT_EQ(StreamDigest(result.jframes), golden.digest)
      << std::hex << "0x" << StreamDigest(result.jframes);
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
}

}  // namespace
}  // namespace jig
