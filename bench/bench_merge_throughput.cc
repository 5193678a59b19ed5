// Merge-pipeline performance (google-benchmark).
//
// The paper's efficiency requirement (Section 4): trace merging must run
// faster than real time in a single pass, and scale with the number of
// radios — the priority-queue design makes jframe construction linear in a
// frame's transmission range, not in the radio population.  These
// benchmarks measure events/second through bootstrap + unification, the
// scaling across deployment sizes, and the channel-sharded parallel
// merge's speedup across thread counts (1/2/4/auto).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <thread>

#include "jigsaw/distributed.h"
#include "jigsaw/pipeline.h"
#include "sim/scenario.h"

namespace {

using namespace jig;

// One shared scenario per deployment size; regenerating traces per
// iteration would swamp the merge being measured.
struct Workload {
  explicit Workload(int pods, Micros duration) {
    ScenarioConfig cfg;
    cfg.seed = 99;
    cfg.duration = duration;
    cfg.clients = 32;
    cfg.pods_enabled = pods;
    scenario = std::make_unique<Scenario>(cfg);
    scenario->Run();
    traces = std::make_unique<TraceSet>(scenario->TakeTraces());
    sim_duration = duration;
  }
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<TraceSet> traces;
  Micros sim_duration = 0;
};

Workload& WorkloadForPods(int pods) {
  static std::map<int, std::unique_ptr<Workload>> cache;
  auto& slot = cache[pods];
  if (!slot) slot = std::make_unique<Workload>(pods, Seconds(10));
  return *slot;
}

void BM_MergePipeline(benchmark::State& state) {
  Workload& w = WorkloadForPods(static_cast<int>(state.range(0)));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const MergeResult result = MergeTraces(*w.traces);
    events = result.stats.events_in;
    benchmark::DoNotOptimize(result.jframes.data());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
  // Faster-than-real-time factor: simulated seconds merged per wall second.
  state.counters["x_realtime"] = benchmark::Counter(
      ToSeconds(w.sim_duration) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MergePipeline)->Arg(10)->Arg(20)->Arg(30)->Arg(39)
    ->Unit(benchmark::kMillisecond);

// Thread-count sweep over the sharded merge on the full multi-pod
// workload.  Arg 0 = auto (one worker per channel shard); arg 1 is one
// worker stepping every shard inline on the calling thread.  The streaming
// sink counts jframes so the measurement excludes result materialization.
void BM_MergeParallel(benchmark::State& state) {
  Workload& w = WorkloadForPods(39);
  MergeConfig cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    std::uint64_t jframes = 0;
    const MergeStreamStats stats = MergeTracesStreaming(
        *w.traces, cfg, [&jframes](JFrame&&) { ++jframes; });
    events = stats.stats.events_in;
    benchmark::DoNotOptimize(jframes);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["x_realtime"] = benchmark::Counter(
      ToSeconds(w.sim_duration) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MergeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Laggard-consumer scenario for the spill tier: every radio's trace is
// fully written except one, which stops at 40% unfinalized — so its
// channel shard starves and gates the k-way merge, exactly like a paused
// dashboard or a lagging analysis.  Without spill (arg 0) the other
// shards throttle at kMergeQueueWatermark and the capture-side unifiers
// stall; with spill (arg 1) they keep consuming, staging backlog on disk.
// The measured operation is the gated Poll(); `events_while_gated` is the
// capture-side progress it achieved, `retained` / `spilled` show where
// the backlog went.  Thirty simulated seconds so per-shard backlog
// genuinely exceeds the watermark.
void BM_MergeSpill(benchmark::State& state) {
  namespace fs = std::filesystem;
  const bool spill = state.range(0) != 0;
  const fs::path dir =
      fs::temp_directory_path() / "bench_merge_spill_traces";
  // The writer must outlive every iteration: destroying it would finalize
  // the laggard's trace and the scenario would stop gating.
  static std::unique_ptr<TraceSetWriter> writer;
  static std::size_t n_radios = 0;
  if (writer == nullptr) {
    static Workload w(/*pods=*/39, Seconds(30));
    fs::remove_all(dir);
    writer = std::make_unique<TraceSetWriter>(dir);
    for (std::size_t i = 0; i < w.traces->size(); ++i) {
      auto& mem = dynamic_cast<MemoryTrace&>(w.traces->at(i));
      writer->AddRadio(mem.header());
      const auto& recs = mem.records();
      // Radio 0 is the laggard: 40% of its capture, never finalized.
      const std::size_t limit = i == 0 ? recs.size() * 2 / 5 : recs.size();
      for (std::size_t r = 0; r < limit; ++r) writer->Append(i, recs[r]);
      writer->Sync();
      if (i != 0) writer->Finalize(i);
    }
    n_radios = w.traces->size();
  }

  const fs::path spill_dir =
      fs::temp_directory_path() / "bench_merge_spill_segments";
  std::uint64_t events = 0;
  std::uint64_t spilled = 0;
  std::uint64_t retained = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TraceSet traces = TraceSet::FollowDirectory(dir, n_radios);
    MergeConfig cfg;
    cfg.threads = 0;
    if (spill) {
      fs::remove_all(spill_dir);
      cfg.spill_dir = spill_dir;
      cfg.spill_threshold = 256;
    }
    std::uint64_t jframes = 0;
    MergeSession session(traces, cfg, [&jframes](JFrame&&) { ++jframes; });
    state.ResumeTiming();
    const auto status = session.Poll();  // runs until gated by the laggard
    state.PauseTiming();
    if (status == MergeSession::Status::kDone) {
      state.SkipWithError("laggard scenario unexpectedly completed");
      break;
    }
    events = session.stats().events_in;
    spilled = session.spilled_jframes();
    retained = session.retained_jframes();
    benchmark::DoNotOptimize(jframes);
    state.ResumeTiming();
  }
  state.counters["events_while_gated"] = static_cast<double>(events);
  state.counters["spilled"] = static_cast<double>(spilled);
  state.counters["retained"] = static_cast<double>(retained);
}
BENCHMARK(BM_MergeSpill)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// End-to-end two-level distributed merge over loopback: two wings each
// relay half the radios' record streams (socket-framed, paced by their
// local merges) to an in-process root, which emits the global jframe
// stream.  Measures root-side events/s with all the network framing,
// relay pacing, and cross-wing boundary reconciliation included — the
// distributed counterpart of BM_MergeParallel.  Arg = root merge threads
// (0 = auto); the wings always merge with 2.
void BM_MergeDistributed(benchmark::State& state) {
  namespace fs = std::filesystem;
  // Wing trace directories, written once: the .jigt files are the
  // workload, re-read per iteration like a real wing restart.
  static fs::path w1, w2;
  static std::size_t n_radios = 0;
  if (n_radios == 0) {
    Workload& w = WorkloadForPods(20);
    const fs::path base =
        fs::temp_directory_path() / "bench_merge_distributed_traces";
    fs::remove_all(base);
    const auto paths = w.traces->WriteDirectory(base / "all");
    w1 = base / "w1";
    w2 = base / "w2";
    fs::create_directories(w1);
    fs::create_directories(w2);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      fs::copy_file(paths[i],
                    (i < paths.size() / 2 ? w1 : w2) / paths[i].filename());
    }
    n_radios = paths.size();
  }

  std::uint64_t events = 0;
  for (auto _ : state) {
    RootConfig rc;
    rc.n_streams = n_radios;
    rc.merge.threads = static_cast<unsigned>(state.range(0));
    RootSession root(rc);
    const std::uint16_t port = root.port();
    const auto run_wing = [port](const fs::path& dir, std::uint32_t id) {
      TraceSet traces = TraceSet::OpenDirectory(dir);
      WingConfig wc;
      wc.wing_id = id;
      wc.root_port = port;
      wc.merge.threads = 2;
      WingSession wing(traces, wc);
      wing.Run();
    };
    std::thread t1(run_wing, w1, 1u);
    std::thread t2(run_wing, w2, 2u);
    std::uint64_t jframes = 0;
    const MergeStreamStats stats =
        root.Run([&jframes](JFrame&&) { ++jframes; });
    t1.join();
    t2.join();
    events = stats.stats.events_in;
    benchmark::DoNotOptimize(jframes);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MergeDistributed)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Bootstrap-only cost on the full deployment (arg = pods), with an
// events/s counter so the regression gate can track it alongside the merge
// families (BENCH_merge.json).  The event count is taken with one untimed
// scan per trace — bootstrap itself reads every record once per iteration.
void BM_Bootstrap(benchmark::State& state) {
  Workload& w = WorkloadForPods(static_cast<int>(state.range(0)));
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < w.traces->size(); ++i) {
    RecordStream& s = w.traces->at(i);
    s.Rewind();
    while (s.NextRef() != nullptr) ++events;
    s.Rewind();
  }
  for (auto _ : state) {
    const auto result = BootstrapSynchronize(*w.traces);
    benchmark::DoNotOptimize(result.offset_us.data());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Bootstrap)->Arg(39)->Unit(benchmark::kMillisecond);

void BM_SearchWindowCost(benchmark::State& state) {
  // Unification cost vs. search window size (wider windows sweep more
  // queue entries per group).
  Workload& w = WorkloadForPods(39);
  MergeConfig cfg;
  cfg.unifier.search_window = state.range(0);
  // Keep the horizon ahead of the widest window under test (the config is
  // validated at entry).
  cfg.reorder_horizon = std::max(cfg.reorder_horizon,
                                 cfg.unifier.search_window * 2);
  for (auto _ : state) {
    const MergeResult result = MergeTraces(*w.traces, cfg);
    benchmark::DoNotOptimize(result.stats.jframes);
  }
}
BENCHMARK(BM_SearchWindowCost)
    ->Arg(1'000)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
