// Metrics-registry semantics: counter/gauge/histogram behavior, bucket
// edges, the global enable switch, concurrent sharded increments (run
// under TSan in CI), and the two exposition formats.
//
// The tests create uniquely-named metrics (the registry is process-global
// and never unregisters) and reset shared ones before use.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "jigsaw/pipeline.h"
#include "obs/export.h"
#include "obs/stage_timer.h"
#include "synthetic.h"

namespace jig::obs {
namespace {

MetricRegistry& Reg() { return MetricRegistry::Global(); }

TEST(CounterTest, AddAccumulatesAndResets) {
  Counter& c = Reg().GetCounter("test_counter_basic");
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, RegistryReturnsSameInstanceForSameName) {
  Counter& a = Reg().GetCounter("test_counter_identity");
  Counter& b = Reg().GetCounter("test_counter_identity");
  EXPECT_EQ(&a, &b);
  // Distinct labels are distinct series of the same name.
  Counter& l1 = Reg().GetCounter("test_counter_labeled", "", "k=\"1\"");
  Counter& l2 = Reg().GetCounter("test_counter_labeled", "", "k=\"2\"");
  EXPECT_NE(&l1, &l2);
}

TEST(CounterTest, KindMismatchThrows) {
  Reg().GetCounter("test_kind_mismatch");
  EXPECT_THROW(Reg().GetGauge("test_kind_mismatch"), std::logic_error);
  EXPECT_THROW(Reg().GetHistogram("test_kind_mismatch", {1, 2}),
               std::logic_error);
}

TEST(GaugeTest, SetAddUpdateMax) {
  Gauge& g = Reg().GetGauge("test_gauge_basic");
  g.Reset();
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.UpdateMax(5);  // below current: no-op
  EXPECT_EQ(g.Value(), 7);
  g.UpdateMax(100);
  EXPECT_EQ(g.Value(), 100);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram& h = Reg().GetHistogram("test_hist_edges", {10, 100, 1000});
  h.Reset();
  h.Observe(0);     // <= 10
  h.Observe(10);    // == edge: belongs to the le=10 bucket
  h.Observe(11);    // first value past the edge
  h.Observe(100);   // == second edge
  h.Observe(1001);  // past every bound: +Inf overflow bucket
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 0 + 10 + 11 + 100 + 1001);
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10, 5}), std::logic_error);
  EXPECT_THROW(Histogram({10, 10}), std::logic_error);
}

TEST(HistogramTest, ReRegistrationWithDifferentBoundsThrows) {
  Reg().GetHistogram("test_hist_rebound", {1, 2, 3});
  EXPECT_NO_THROW(Reg().GetHistogram("test_hist_rebound", {1, 2, 3}));
  EXPECT_THROW(Reg().GetHistogram("test_hist_rebound", {1, 2}),
               std::logic_error);
}

TEST(EnabledTest, DisabledMetricsDropWrites) {
  Counter& c = Reg().GetCounter("test_enabled_counter");
  Gauge& g = Reg().GetGauge("test_enabled_gauge");
  Histogram& h = Reg().GetHistogram("test_enabled_hist", {10});
  c.Reset();
  g.Reset();
  h.Reset();
  SetEnabled(false);
  c.Add(5);
  g.Set(5);
  h.Observe(5);
  SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Count(), 0u);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

// The hot-path contract: concurrent relaxed increments from many threads
// lose nothing.  Run under TSan in CI to prove the sharded cells are
// data-race-free.
TEST(ConcurrencyTest, ShardedIncrementsAreExact) {
  Counter& c = Reg().GetCounter("test_concurrent_counter");
  Histogram& h = Reg().GetHistogram("test_concurrent_hist", {100, 10'000});
  Gauge& peak = Reg().GetGauge("test_concurrent_peak");
  c.Reset();
  h.Reset();
  peak.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add(1);
        h.Observe(i % 200);
        peak.UpdateMax(t * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], h.Count());
  EXPECT_EQ(peak.Value(), (kThreads - 1) * kPerThread + kPerThread - 1);
}

TEST(ConcurrencyTest, CollectIsSafeConcurrentWithWrites) {
  Counter& c = Reg().GetCounter("test_concurrent_collect");
  c.Reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.Add(1);
  });
  for (int i = 0; i < 100; ++i) {
    const MetricsSnapshot snap = Reg().Collect();
    const MetricSample* s = snap.Find("test_concurrent_collect");
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->value, 0);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(StageTimerTest, ObservesOnceIntoHistogram) {
  Histogram& h =
      Reg().GetHistogram("test_stage_timer", LatencyBucketsUs());
  h.Reset();
  {
    StageTimer timer(h);
  }
  EXPECT_EQ(h.Count(), 1u);
  {
    StageTimer timer(h);
    timer.Record();
    timer.Record();  // idempotent: still one observation
  }
  EXPECT_EQ(h.Count(), 2u);
  SetEnabled(false);
  {
    StageTimer timer(h);
  }
  SetEnabled(true);
  EXPECT_EQ(h.Count(), 2u);
}

TEST(SnapshotTest, ValueHelperReadsAllKinds) {
  Reg().GetCounter("test_snap_counter").Reset();
  Reg().GetCounter("test_snap_counter").Add(7);
  Reg().GetGauge("test_snap_gauge").Set(-3);
  Histogram& h = Reg().GetHistogram("test_snap_hist", {5});
  h.Reset();
  h.Observe(1);
  h.Observe(9);
  const MetricsSnapshot snap = Reg().Collect();
  EXPECT_EQ(snap.Value("test_snap_counter"), 7);
  EXPECT_EQ(snap.Value("test_snap_gauge"), -3);
  EXPECT_EQ(snap.Value("test_snap_hist"), 2);  // histogram -> count
  EXPECT_EQ(snap.Value("test_snap_absent"), 0);
  EXPECT_EQ(snap.Find("test_snap_absent"), nullptr);
}

TEST(ExpositionTest, PrometheusTextFormat) {
  Reg().GetCounter("test_prom_counter", "a counter").Reset();
  Reg().GetCounter("test_prom_counter", "a counter").Add(3);
  Histogram& h = Reg().GetHistogram("test_prom_hist", {10, 20}, "a hist");
  h.Reset();
  h.Observe(5);
  h.Observe(15);
  h.Observe(99);
  const std::string text = ToPrometheusText(Reg().Collect());
  EXPECT_NE(text.find("# HELP test_prom_counter a counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 3\n"), std::string::npos);
  // Histogram buckets are cumulative in the text format.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"20\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum 119"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 3"), std::string::npos);
}

TEST(ExpositionTest, JsonMirrorsSnapshotNonCumulatively) {
  Reg().GetCounter("test_json_counter").Reset();
  Reg().GetCounter("test_json_counter").Add(11);
  Histogram& h = Reg().GetHistogram("test_json_hist", {10, 20});
  h.Reset();
  h.Observe(5);
  h.Observe(15);
  h.Observe(99);
  const std::string json = ToJson(Reg().Collect());
  EXPECT_NE(json.find("\"test_json_counter\": 11"), std::string::npos);
  // Non-cumulative per-bucket counts (1 per bucket here), bounds listed.
  EXPECT_NE(json.find("\"bounds\": [10, 20]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [1, 1, 1]"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 119"), std::string::npos);
}

TEST(ExpositionTest, LabeledSeriesShareOneTypeHeader) {
  Reg().GetCounter("test_prom_labeled", "help", "consumer=\"a\"").Reset();
  Reg().GetCounter("test_prom_labeled", "help", "consumer=\"b\"").Reset();
  Reg().GetCounter("test_prom_labeled", "help", "consumer=\"a\"").Add(1);
  Reg().GetCounter("test_prom_labeled", "help", "consumer=\"b\"").Add(2);
  const std::string text = ToPrometheusText(Reg().Collect());
  EXPECT_NE(text.find("test_prom_labeled{consumer=\"a\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_labeled{consumer=\"b\"} 2"),
            std::string::npos);
  // Exactly one TYPE line for the metric name.
  const std::string type_line = "# TYPE test_prom_labeled counter";
  const auto first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
}

// The lag-accounting regression pins.  Pre-fix, Emit() observed the raw
// `capture_frontier - jf.timestamp` into jig_merge_emit_lag_us and
// live_lag_us() returned the raw frontier difference — both could go
// negative when an emission outran the captured frontier.

// The clamp itself (the pre-fix code had no such seam: both sites did a
// raw subtraction, which this pins against).
TEST(LagAccountingTest, ClampedLagNeverNegative) {
  EXPECT_EQ(jig::ClampedLagUs(250, 100), 150);
  EXPECT_EQ(jig::ClampedLagUs(100, 100), 0);
  // An emission ahead of the captured frontier is zero lag, not negative.
  EXPECT_EQ(jig::ClampedLagUs(100, 250), 0);
  EXPECT_EQ(jig::ClampedLagUs(-500, -100), 0);
  EXPECT_EQ(jig::ClampedLagUs(-100, -500), 400);
}

// End-to-end: across a full merge the emit frontier advances
// monotonically, live_lag_us() never reports below zero, and at kDone the
// output has caught up with capture exactly (lag == 0).  The lag
// histogram must likewise hold only non-negative samples.
TEST(LagAccountingTest, SessionLagIsNonNegativeAndZeroAtDone) {
  Histogram& lag_hist = Reg().GetHistogram(
      "jig_merge_emit_lag_us", LatencyBucketsUs(), "Emit lag (us)");
  lag_hist.Reset();

  auto net = jig::testing::MultiChannelNetwork(77);
  auto traces = net.Build();
  jig::MergeConfig config;
  config.threads = 2;
  std::int64_t prev_emit_ts = std::numeric_limits<std::int64_t>::min();
  std::uint64_t emitted = 0;
  jig::MergeSession session(traces, config, [&](jig::JFrame&& jf) {
    EXPECT_GE(jf.timestamp, prev_emit_ts) << "emit frontier went backwards";
    prev_emit_ts = jf.timestamp;
    ++emitted;
  });
  jig::MergeSession::Status status;
  do {
    status = session.Poll();
    EXPECT_GE(session.live_lag_us(), 0)
        << "live lag reported negative mid-session";
  } while (status != jig::MergeSession::Status::kDone);
  ASSERT_GT(emitted, 0u);
  EXPECT_EQ(session.live_lag_us(), 0)
      << "output did not catch up with capture at kDone";

  // Histogram samples were clamped: with the bounded sum identity,
  // Sum() >= 0 and every recorded sample landed in a finite-or-overflow
  // bucket (negative raw samples would drag Sum() below zero long before
  // the bucket counts noticed).
  EXPECT_EQ(lag_hist.Count(), emitted);
  EXPECT_GE(lag_hist.Sum(), 0);
}

// The shard counters see every capture event, jframe and clock resync at
// every thread setting, threads=1 (one worker, stepping the shards inline)
// included.
TEST(ShardCounterTest, DeltasEqualSessionStatsAtEveryThreadSetting) {
  for (unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto before = Reg().Collect();
    auto traces = jig::testing::MultiChannelNetwork(5).Build();
    jig::MergeConfig config;
    config.threads = threads;
    const jig::UnifyStats stats = jig::MergeTraces(traces, config).stats;
    const auto after = Reg().Collect();
    ASSERT_GT(stats.jframes, 100u);
    EXPECT_EQ(after.Value("jig_shard_events_total") -
                  before.Value("jig_shard_events_total"),
              static_cast<std::int64_t>(stats.events_in));
    EXPECT_EQ(after.Value("jig_shard_jframes_total") -
                  before.Value("jig_shard_jframes_total"),
              static_cast<std::int64_t>(stats.jframes));
    // The scenario's drifting clocks make the unifiers resync, so the
    // counter is checked on a nonzero total.
    ASSERT_GT(stats.resyncs, 0u);
    EXPECT_EQ(after.Value("jig_shard_resyncs_total") -
                  before.Value("jig_shard_resyncs_total"),
              static_cast<std::int64_t>(stats.resyncs));
  }
}

}  // namespace
}  // namespace jig::obs
