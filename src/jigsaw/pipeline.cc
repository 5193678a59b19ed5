#include "jigsaw/pipeline.h"

#include "jigsaw/spill.h"
#include "obs/stage_timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace jig {
namespace {

// The total order the merge emits: timestamp, then channel.  Distinct
// transmissions on one channel never tie below this key in practice, and
// when they do (identical integer microsecond), unifier emission order is
// preserved — FIFO among equal keys in each shard's reorder buffer, and
// per-shard FIFO in the k-way merge.
using OrderKey = std::pair<UniversalMicros, std::uint8_t>;

OrderKey KeyOf(const JFrame& jf) {
  return {jf.timestamp, static_cast<std::uint8_t>(jf.channel)};
}

// Min-buffer that releases jframes into a shard queue once the frontier passes.
//
// A binary heap over a flat vector, not the stable multimap it used to be:
// the map spent the hot path on node allocation.  An insertion sequence
// number breaks ties so equal keys still drain in FIFO order — exactly the
// multimap's upper-bound insertion behavior, which the byte-identity
// contract depends on.
class ReorderBuffer {
 public:
  ReorderBuffer(Micros horizon, std::deque<JFrame>& out)
      : horizon_(horizon), out_(out) {}

  void Push(JFrame&& jf) {
    frontier_ = std::max(frontier_, jf.timestamp);
    buffer_.push_back(Entry{KeyOf(jf), next_seq_++, std::move(jf)});
    std::push_heap(buffer_.begin(), buffer_.end(), Later);
    Drain(frontier_ - horizon_);
  }

  void Flush() { Drain(std::numeric_limits<UniversalMicros>::max()); }

  std::size_t size() const { return buffer_.size(); }
  UniversalMicros frontier() const { return frontier_; }

 private:
  struct Entry {
    OrderKey key;
    std::uint64_t seq;  // insertion order: FIFO among equal keys
    JFrame jf;
  };

  // Heap comparator ("comes later"): the root is the least (key, seq).
  static bool Later(const Entry& a, const Entry& b) {
    return std::tie(b.key, b.seq) < std::tie(a.key, a.seq);
  }

  void Drain(UniversalMicros up_to) {
    while (!buffer_.empty() && buffer_.front().key.first <= up_to) {
      std::pop_heap(buffer_.begin(), buffer_.end(), Later);
      out_.push_back(std::move(buffer_.back().jf));
      buffer_.pop_back();
    }
  }

  Micros horizon_;
  std::deque<JFrame>& out_;
  std::vector<Entry> buffer_;  // min-heap under Later
  std::uint64_t next_seq_ = 0;
  UniversalMicros frontier_ = std::numeric_limits<UniversalMicros>::min();
};

Micros EffectiveHorizon(const MergeConfig& config) {
  return std::max(config.reorder_horizon, config.unifier.search_window * 2);
}

constexpr std::size_t kUnifyStep = 1024;  // groups per scheduling slice

// A merge pass stages at most this many jframes from one shard, so the next
// round still has room to unify under the watermark while the sink runs.
// It is also what one round can return to a shard's JFramePool, so the
// pool is capped there.
constexpr std::size_t kStagedPerShard = kMergeQueueWatermark / 2;

unsigned ResolveWorkers(unsigned threads, std::size_t shard_count) {
  unsigned n = threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(n, std::max<std::size_t>(shard_count, 1)));
}

struct PipelineMetrics {
  obs::Counter& shard_events = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_events_total",
      "Capture events consumed by unifiers (all shards)");
  obs::Counter& shard_jframes = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_jframes_total",
      "JFrames produced by unifiers (all shards)");
  obs::Counter& shard_resyncs = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_resyncs_total",
      "Clock resynchronizations performed by unifiers (all shards)");
  obs::Counter& rounds = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_rounds_total", "Sharded merge rounds executed");
  obs::Gauge& queue_peak = obs::MetricRegistry::Global().GetGauge(
      "jig_shard_queue_peak",
      "High-watermark of any single shard queue depth");
  obs::Histogram& round_wait_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_shard_round_wait_us", obs::LatencyBucketsUs(),
      "Poll-thread wait at the round barrier the sink did not cover (pool "
      "mode only)");
  obs::Counter& emitted = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_jframes_emitted_total",
      "JFrames emitted by the k-way merge");
  obs::Histogram& emit_lag_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_merge_emit_lag_us", obs::LatencyBucketsUs(),
      "Capture-time distance between the newest unified jframe and each "
      "emission — the live-lag metric");
  obs::Counter& polls = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_polls_total", "MergeSession::Poll calls");
  obs::Gauge& arena_pooled = obs::MetricRegistry::Global().GetGauge(
      "jig_arena_jframes_pooled",
      "JFrame carcasses currently parked in merge arena pools");
  obs::Counter& arena_recycled = obs::MetricRegistry::Global().GetCounter(
      "jig_arena_jframes_recycled_total",
      "JFrame carcasses recycled through merge arena pools");
  obs::Counter& pin_failures = obs::MetricRegistry::Global().GetCounter(
      "jig_pipeline_pin_failures_total",
      "Worker CPU-pinning attempts the kernel rejected (fell back to "
      "normal scheduling)");
};

PipelineMetrics& Metrics() {
  static PipelineMetrics* m = new PipelineMetrics();
  return *m;
}

}  // namespace

void ValidateMergeConfig(const MergeConfig& config) {
  if (config.unifier.search_window <= 0) {
    throw std::invalid_argument("MergeConfig: search_window must be > 0");
  }
  if (config.reorder_horizon <= config.unifier.search_window) {
    throw std::invalid_argument(
        "MergeConfig: reorder_horizon (" +
        std::to_string(config.reorder_horizon) +
        " us) must exceed unifier.search_window (" +
        std::to_string(config.unifier.search_window) +
        " us); a shorter horizon releases jframes before the group that "
        "precedes them can still form, producing an out-of-order stream");
  }
  if (!config.spill_dir.empty()) {
    if (config.spill_threshold == 0) {
      throw std::invalid_argument(
          "MergeConfig: spill_threshold must be > 0 when spill_dir is set");
    }
    if (config.spill_threshold > kMergeQueueWatermark) {
      throw std::invalid_argument(
          "MergeConfig: spill_threshold (" +
          std::to_string(config.spill_threshold) +
          ") exceeds kMergeQueueWatermark (" +
          std::to_string(kMergeQueueWatermark) +
          "); the queue throttles at the watermark, so a higher threshold "
          "could never engage the spill tier");
    }
  }
}

// ---------------------------------------------------------------------------
// MergeSession.
//
// The merge runs in rounds: the workers step every shard's unifier (each
// bounded by the queue watermark), a barrier joins the round, then the
// Poll() thread k-way merges the shard queues as far as every shard has
// either a head or a final end-of-stream.  The merge pass only stages what
// it pops; the sink sees that batch while the workers run the next round,
// so unifying and emitting overlap instead of taking turns.  Everything
// the workers share with the Poll thread (shard queues, spill replay, the
// jframe pools) is still touched only between rounds.  With one worker no
// pool is started: the same loop runs inline, and a round advances only
// the shard furthest behind in capture time, by one slice.  Poll() stops
// scheduling rounds once no shard can advance and nothing is staged, which
// is what makes the session resumable.

struct MergeSession::Impl {
  struct LiveShard {
    std::deque<JFrame> queue;  // ordered output awaiting the k-way merge
    std::unique_ptr<ReorderBuffer> reorder;
    std::unique_ptr<Unifier> unifier;
    bool exhausted = false;  // unifier done and reorder flushed
    // Spill tier (null when MergeConfig::spill_dir is empty).  While
    // `spilling` is latched, every un-replayed spilled jframe precedes
    // everything in `queue`, so the consumer replays the spill to
    // exhaustion before touching the queue again — that invariant is the
    // whole ordering argument for spill-mode byte-identity.
    std::unique_ptr<SpillQueue> spill;
    bool spilling = false;
    // Consumer-side slot for the k-way merge's peek (Pop() is
    // destructive); counts as retained.
    std::optional<JFrame> spill_head;
    // Arena: the unifier acquires, spill drain and the staged batch's
    // return recycle.  Worker-phase and merge-phase accesses are
    // serialized by the round barrier — see JFramePool.
    JFramePool pool{kStagedPerShard};
    // This shard's jframes in the staged batch.  Set between rounds; the
    // worker counts them against the watermark while the sink drains them.
    std::size_t staged = 0;
    // Unifier totals already in the shard counters (totals, not per-call
    // deltas: the unifier's constructor already reads a head per trace).
    std::uint64_t events_published = 0;
    std::uint64_t jframes_published = 0;
    std::uint64_t resyncs_published = 0;
  };

  struct StagedJFrame {
    LiveShard* shard;  // whose pool gets the carcass back
    JFrame jf;
  };

  TraceSet& traces;
  MergeConfig config;
  std::function<void(JFrame&&)> sink;

  bool bootstrapped = false;
  bool done = false;
  bool failed = false;
  std::vector<bool> window_filled;  // per-trace bootstrap readiness cache
  // Per-trace bootstrap window end (NTP frame), latched off the first
  // record; the readiness scan keeps each stream's cursor across polls so
  // a poll only reads records that arrived since the last one.
  std::vector<std::optional<std::int64_t>> window_end;
  BootstrapResult bootstrap;
  UnifyStats final_stats;  // latched before teardown
  std::uint64_t arena_recycled_published = 0;  // counter delta tracking

  std::vector<ChannelShard> shards;
  std::vector<std::unique_ptr<LiveShard>> live;
  unsigned workers = 1;
  SpillBudget spill_budget;      // shared across shards (max_spill_bytes)
  std::uint64_t final_spilled = 0;  // lifetime total, latched at teardown

  // Round-barrier worker pool (only when workers > 1).
  std::vector<std::thread> pool;
  std::mutex pool_mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  std::size_t remaining = 0;
  bool shutdown = false;
  bool round_progress = false;
  std::vector<std::exception_ptr> round_errors;

  // The last merge pass's output, in emission order, and whether that pass
  // stopped at a shard with nothing consumable (rather than at the staging
  // cap): only then is queue residue lag that may engage the spill tier.
  std::vector<StagedJFrame> staged;
  bool merge_gated = false;

  std::uint64_t emitted = 0;
  std::size_t peak_retained = 0;

  // Live-lag frontiers, universal-time domain.  capture_frontier is the
  // max timestamp any unifier has pushed into a reorder buffer (atomic
  // max — shard workers race); emit_frontier is the last emitted jframe's
  // timestamp (Poll thread only; atomic so live_lag_us() can read it from
  // another thread).  Their difference is how far the merge's output
  // trails the freshest unified capture data.
  static constexpr std::int64_t kNoFrontier =
      std::numeric_limits<std::int64_t>::min();
  std::atomic<std::int64_t> capture_frontier{kNoFrontier};
  std::atomic<std::int64_t> emit_frontier{kNoFrontier};

  void NoteCaptured(UniversalMicros ts) {
    std::int64_t seen = capture_frontier.load(std::memory_order_relaxed);
    while (ts > seen && !capture_frontier.compare_exchange_weak(
                            seen, ts, std::memory_order_relaxed)) {
    }
  }

  // Every emission funnels through here so the emitted counter, the emit
  // frontier and the lag histogram cannot drift apart.
  void Emit(JFrame&& jf) {
    ++emitted;
    emit_frontier.store(jf.timestamp, std::memory_order_relaxed);
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      m.emitted.Add(1);
      const std::int64_t cap =
          capture_frontier.load(std::memory_order_relaxed);
      if (cap != kNoFrontier) {
        m.emit_lag_us.Observe(ClampedLagUs(cap, jf.timestamp));
      }
    }
    sink(std::move(jf));
  }

  std::int64_t LiveLagUs() const {
    const std::int64_t cap =
        capture_frontier.load(std::memory_order_relaxed);
    const std::int64_t emit = emit_frontier.load(std::memory_order_relaxed);
    if (cap == kNoFrontier || emit == kNoFrontier) return 0;
    return ClampedLagUs(cap, emit);
  }

  Impl(TraceSet& t, const MergeConfig& c, std::function<void(JFrame&&)> s)
      : traces(t), config(c), sink(std::move(s)) {}

  ~Impl() {
    StopPool();
    // Destroy the unifiers/reorder buffers before handing the shard streams
    // back (they hold references into the shard trace sets).
    live.clear();
    Reassemble();
  }

  void Reassemble() {
    if (shards.empty()) return;
    traces.AdoptShards(std::move(shards));
    shards.clear();
  }

  // ---- bootstrap phase ----------------------------------------------------

  // Has trace i's bootstrap window filled?  Mirrors the window scan of
  // BootstrapSynchronize: the window is anchored at the trace's own first
  // record, so it has filled once a record at/after window-end exists — or
  // once the trace finalized with less than a window of data.  The stream
  // cursor persists across polls (data only ever grows), so each poll
  // reads only what arrived since the last; BootstrapSynchronize and the
  // unifiers rewind everything afterwards anyway.
  bool ScanBootstrapReady(std::size_t i) {
    RecordStream& stream = traces.at(i);
    const std::int64_t ntp0 = stream.header().ntp_utc_of_local_zero_us;
    if (!window_end[i]) {
      stream.Rewind();
      const CaptureRecord* first = stream.NextRef();
      if (first == nullptr) return stream.Finalized();
      window_end[i] = ntp0 + first->timestamp + config.bootstrap.window;
      if (ntp0 + first->timestamp >= *window_end[i]) return true;
    }
    while (const CaptureRecord* rec = stream.NextRef()) {
      if (ntp0 + rec->timestamp >= *window_end[i]) return true;
    }
    return stream.Finalized();
  }

  bool TryBootstrap() {
    if (window_filled.empty()) {
      window_filled.assign(traces.size(), false);
      window_end.assign(traces.size(), std::nullopt);
    }
    bool all = true;  // an empty set falls through: bootstrap throws
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (!window_filled[i]) window_filled[i] = ScanBootstrapReady(i);
      all = all && window_filled[i];
    }
    if (!all) return false;
    // Bootstrap is always global: reference sets bridge channels through
    // the monitors' shared capture clocks, which a per-shard pass cannot
    // see.  Traces are re-read from offset zero — the "late bootstrap"
    // path: nothing was buffered while waiting, the files are the buffer.
    bootstrap = BootstrapSynchronize(traces, config.bootstrap);
    SetupMerge();
    bootstrapped = true;
    return true;
  }

  void SetupMerge() {
    shards = traces.PartitionByChannel();
    spill_budget.limit = config.max_spill_bytes;
    live.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      auto ls = std::make_unique<LiveShard>();
      ls->reorder =
          std::make_unique<ReorderBuffer>(EffectiveHorizon(config), ls->queue);
      ReorderBuffer* reorder = ls->reorder.get();
      ls->unifier = std::make_unique<Unifier>(
          shards[s].traces, bootstrap.Slice(shards[s].source_index),
          config.unifier,
          [this, reorder](JFrame&& jf) {
            NoteCaptured(jf.timestamp);
            reorder->Push(std::move(jf));
          },
          ls->pool);
      if (!config.spill_dir.empty()) {
        ls->spill = std::make_unique<SpillQueue>(
            config.spill_dir,
            static_cast<std::uint8_t>(shards[s].channel), &spill_budget);
      }
      live.push_back(std::move(ls));
    }
    workers = ResolveWorkers(config.threads, shards.size());
    if (workers > 1) StartPool();
  }

  // ---- worker rounds ------------------------------------------------------

  // Drains the shard queue into its spill tier when engaged (already
  // spilling, or the queue crossed the threshold).  Spilling stays latched
  // until the consumer replays the spill dry — while latched, everything
  // in the queue is newer than everything spilled, so draining front-first
  // preserves FIFO order.  Push refusal (budget exhausted) leaves the rest
  // queued: the shard degrades to plain watermark backpressure until
  // replay reclaims segments.  Returns true if anything moved to disk.
  bool MaybeSpill(LiveShard& ls) {
    if (ls.spill == nullptr) return false;
    if (!ls.spilling &&
        (!merge_gated || ls.queue.size() < config.spill_threshold)) {
      return false;
    }
    ls.spilling = true;
    bool moved = false;
    while (!ls.queue.empty() && ls.spill->Push(ls.queue.front())) {
      // Push serialized without consuming; recycle the carcass (worker
      // thread, this shard's pool — the barrier orders it vs. emit).
      ls.pool.Recycle(std::move(ls.queue.front()));
      ls.queue.pop_front();
      moved = true;
    }
    if (moved) ls.spill->Sync();  // publish before the round barrier
    return moved;
  }

  // Steps one shard until it starves, exhausts, or its queue reaches the
  // watermark (with the spill tier engaged, the queue drains to disk
  // instead, so only budget exhaustion still hits the watermark) — or,
  // with `one_slice`, after one unify slice.  Returns true if anything was
  // consumed, produced or spilled.
  //
  // The engage decision runs once, at round entry: a queue still at or
  // past the threshold *here*, after a merge pass that stopped at a gating
  // shard, is what the consumer could not take — actual lag.  The
  // transient fill while this round's unifier runs is not lag (the merge
  // pass never runs mid-round), nor is residue left by a pass that stopped
  // at the staging cap, so neither engages the tier: otherwise a plain
  // batch merge with a spill_dir would stage its stream through disk.
  //
  // The watermark counts this shard's staged jframes too: they are still
  // in memory while the sink drains them.
  bool StepShard(LiveShard& ls, bool one_slice = false) {
    if (ls.exhausted) return false;
    bool progress = MaybeSpill(ls);
    for (;;) {
      if (ls.spilling) progress = MaybeSpill(ls) || progress;
      if (ls.queue.size() + ls.staged >= kMergeQueueWatermark) break;
      const std::uint64_t before = ls.unifier->stats().events_in;
      const std::size_t queued = ls.queue.size();
      const UnifyStep step = ls.unifier->Step(kUnifyStep);
      progress = progress || ls.unifier->stats().events_in != before ||
                 ls.queue.size() != queued;
      if (step == UnifyStep::kStarved) break;
      if (step == UnifyStep::kExhausted) {
        ls.reorder->Flush();
        ls.exhausted = true;
        progress = true;
        break;
      }
      if (one_slice) break;
    }
    if (ls.spilling) progress = MaybeSpill(ls) || progress;
    // Metrics ride the stats of the whole call — one pair of counter adds
    // per StepShard, nothing per event.
    const UnifyStats& after = ls.unifier->stats();
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      m.shard_events.Add(after.events_in - ls.events_published);
      m.shard_jframes.Add(after.jframes - ls.jframes_published);
      m.shard_resyncs.Add(after.resyncs - ls.resyncs_published);
      m.queue_peak.UpdateMax(static_cast<std::int64_t>(ls.queue.size()));
    }
    ls.events_published = after.events_in;
    ls.jframes_published = after.jframes;
    ls.resyncs_published = after.resyncs;
    return progress;
  }

  bool WorkerRound(unsigned w) {
    bool progress = false;
    for (std::size_t s = w; s < live.size(); s += workers) {
      progress = StepShard(*live[s]) || progress;
    }
    return progress;
  }

  // Best-effort round-robin CPU pinning for shard workers (Linux only;
  // failure — a restricted affinity mask, fewer CPUs than advertised —
  // falls back to normal scheduling).  Scheduling only: the round barrier
  // fixes the merge order wherever the workers run.
  void MaybePin(std::thread& t, unsigned index) {
#if defined(__linux__)
    if (!config.pin_threads) return;
    unsigned ncpu = std::thread::hardware_concurrency();
    if (ncpu == 0) ncpu = 1;
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(index % ncpu, &cpus);
    // "Silently a no-op" (pipeline.h) means the pipeline keeps working, not
    // that the failure is invisible: count rejections so a deployment that
    // thinks it pinned (cgroup cpuset, restricted mask) can see it did not.
    if (pthread_setaffinity_np(t.native_handle(), sizeof(cpus), &cpus) != 0) {
      if (obs::Enabled()) Metrics().pin_failures.Add(1);
    }
#else
    (void)t;
    (void)index;
#endif
  }

  void StartPool() {
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([this, w] {
        std::uint64_t seen = 0;
        for (;;) {
          std::unique_lock lk(pool_mu);
          start_cv.wait(lk,
                        [&] { return shutdown || generation != seen; });
          if (shutdown) return;
          seen = generation;
          lk.unlock();
          bool progress = false;
          std::exception_ptr error;
          try {
            progress = WorkerRound(w);
          } catch (...) {
            error = std::current_exception();
          }
          lk.lock();
          round_progress = round_progress || progress;
          if (error) round_errors.push_back(error);
          if (--remaining == 0) {
            lk.unlock();
            done_cv.notify_all();
          }
        }
      });
      MaybePin(pool.back(), w);
    }
  }

  void StopPool() {
    if (pool.empty()) return;
    {
      std::lock_guard lk(pool_mu);
      shutdown = true;
    }
    start_cv.notify_all();
    for (auto& t : pool) t.join();
    pool.clear();
  }

  // Runs one round and hands the staged batch to the sink while it runs;
  // returns whether any shard progressed.  The round is joined before any
  // exception leaves, the sink's included, so no worker outlives a Poll().
  bool RunRound() {
    Metrics().rounds.Add(1);
    StartRound();
    try {
      for (StagedJFrame& s : staged) Emit(std::move(s.jf));
    } catch (...) {
      AwaitRound();
      throw;
    }
    return JoinRound();
  }

  void StartRound() {
    if (pool.empty()) return;
    {
      std::lock_guard lk(pool_mu);
      round_progress = false;
      remaining = pool.size();
      ++generation;
    }
    start_cv.notify_all();
  }

  void AwaitRound() {
    if (pool.empty()) return;
    std::unique_lock lk(pool_mu);
    done_cv.wait(lk, [&] { return remaining == 0; });
  }

  // Joins the round (with one worker: runs it) and takes the emitted
  // batch's carcasses back into the shard pools.
  bool JoinRound() {
    if (pool.empty()) {
      // Nothing is in flight, so the carcasses can feed this very step.
      RecycleStaged();
      // One worker: a round costs nothing, so advance only the shard
      // furthest behind in capture time that can, by one slice.  The merge
      // emits no further than that shard; more from the others would wait.
      std::vector<LiveShard*> order;
      for (auto& ls : live) order.push_back(ls.get());
      std::ranges::stable_sort(
          order, {}, [](auto* ls) { return ls->reorder->frontier(); });
      for (LiveShard* ls : order) {
        if (StepShard(*ls, /*one_slice=*/true)) return true;
      }
      return false;
    }
    std::unique_lock lk(pool_mu);
    {
      obs::StageTimer wait_timer(Metrics().round_wait_us);
      done_cv.wait(lk, [&] { return remaining == 0; });
    }
    RecycleStaged();
    if (!round_errors.empty()) {
      const auto error = round_errors.front();
      round_errors.clear();
      std::rethrow_exception(error);
    }
    return round_progress;
  }

  // Returns the emitted batch's carcasses to their shards' pools — never
  // while a round is in flight: the barrier orders this against each
  // shard's worker.
  void RecycleStaged() {
    for (StagedJFrame& s : staged) s.shard->pool.Recycle(std::move(s.jf));
    staged.clear();
    for (auto& ls : live) ls->staged = 0;
  }

  // ---- consumer merge -----------------------------------------------------

  // The shard's next jframe in FIFO order, or nullptr when it has nothing
  // consumable right now.  The spill tier is always replayed before the
  // in-memory queue; once it runs dry the shard drops back to in-memory
  // hand-off (un-latching `spilling` so the worker stops draining).
  const JFrame* ShardHead(LiveShard& ls) {
    if (ls.spill != nullptr) {
      if (!ls.spill_head) ls.spill_head = ls.spill->Pop();
      if (ls.spill_head) return &*ls.spill_head;
      if (!ls.spill->Empty()) {
        // Spilled but not yet published — only possible mid-round, which
        // the barrier excludes; treat as not consumable out of caution.
        return nullptr;
      }
      ls.spilling = false;  // replayed dry: resume in-memory hand-off
      // Reclaim the drained open segment too, releasing its budget bytes
      // — otherwise one long lag episode could pin the whole
      // max_spill_bytes budget for the rest of the session.
      ls.spill->ReclaimDrained();
    }
    return ls.queue.empty() ? nullptr : &ls.queue.front();
  }

  // Pops the jframe ShardHead returned.
  JFrame TakeShardHead(LiveShard& ls) {
    if (ls.spill_head) {
      JFrame jf = std::move(*ls.spill_head);
      ls.spill_head.reset();
      return jf;
    }
    JFrame jf = std::move(ls.queue.front());
    ls.queue.pop_front();
    return jf;
  }

  // Stages the globally least OrderKey among the shard heads, exactly like
  // the batch k-way merge: correctness needs a head (or final
  // end-of-stream) from every shard before each pop, so a starved shard
  // with nothing consumable gates the stream — the watermark stall.  The
  // pass also stops once one shard has kStagedPerShard staged.
  std::size_t MergeQueues() {
    std::size_t merged = 0;
    const std::size_t n = live.size();
    for (;;) {
      std::size_t best = n;
      const JFrame* best_head = nullptr;
      bool gated = false;
      for (std::size_t i = 0; i < n; ++i) {
        LiveShard& ls = *live[i];
        const JFrame* head = ShardHead(ls);
        if (head == nullptr) {
          if (!ls.exhausted) {
            gated = true;
            break;
          }
          continue;
        }
        if (best == n || KeyOf(*head) < KeyOf(*best_head)) {
          best = i;
          best_head = head;
        }
      }
      merge_gated = gated;
      if (gated || best == n) return merged;
      LiveShard& ls = *live[best];
      staged.emplace_back(&ls, TakeShardHead(ls));
      ++merged;
      if (++ls.staged >= kStagedPerShard) return merged;
    }
  }

  std::size_t Retained() const {
    std::size_t total = staged.size();
    for (const auto& ls : live) {
      // Spilled jframes live on disk, not in memory — only the staged
      // consumer-side head counts here.  That asymmetry is the point of
      // the tier: lagging by a million jframes retains one.
      total += ls->queue.size() + ls->reorder->size() +
               (ls->spill_head ? 1 : 0);
    }
    return total;
  }

  std::uint64_t Spilled() const {
    std::uint64_t total = final_spilled;
    for (const auto& ls : live) {
      if (ls->spill != nullptr) total += ls->spill->spilled_jframes();
    }
    return total;
  }

  std::uint64_t SpillBytesOnDisk() const {
    std::uint64_t total = 0;
    for (const auto& ls : live) {
      if (ls->spill != nullptr) total += ls->spill->bytes_on_disk();
    }
    return total;
  }

  void ObserveRetention() {
    peak_retained = std::max(peak_retained, Retained());
    PublishArenaMetrics();
  }

  // Folds the pools' own counters into the registry (gauge for parked
  // carcasses, delta-tracked counter for lifetime recycles).  Runs on the
  // Poll() thread between rounds, so reading the shard pools is safe.
  void PublishArenaMetrics() {
    if (!obs::Enabled()) return;
    std::uint64_t pooled = 0;
    std::uint64_t recycled = 0;
    for (const auto& ls : live) {
      pooled += ls->pool.pooled();
      recycled += ls->pool.recycled_total();
    }
    PipelineMetrics& m = Metrics();
    m.arena_pooled.Set(static_cast<std::int64_t>(pooled));
    if (recycled > arena_recycled_published) {
      m.arena_recycled.Add(recycled - arena_recycled_published);
      arena_recycled_published = recycled;
    }
  }

  // ---- polling ------------------------------------------------------------

  Status PollInner() {
    Metrics().polls.Add(1);
    if (done) return Status::kDone;
    if (!bootstrapped && !TryBootstrap()) return Status::kBootstrapping;
    for (;;) {
      // A round that overlapped a staged batch ran with its shards capped
      // lower; only one with nothing staged proves no shard can advance.
      const bool overlapped = !staged.empty();
      const bool stepped = RunRound();
      const bool merged = MergeQueues() > 0;
      ObserveRetention();
      if (!stepped && !merged && !overlapped) break;
    }
    for (const auto& ls : live) {
      if (!ls->exhausted || !ls->queue.empty() || ls->spill_head ||
          (ls->spill != nullptr && !ls->spill->Empty())) {
        return Status::kStarved;
      }
    }
    done = true;
    // Tear the shard machinery down now, not at destruction: the contract
    // hands the streams back to the caller's TraceSet as soon as the
    // session completes, so the set is reusable while the session (and
    // its stats) live on.  Dropping the shards also removes any remaining
    // spill segments (all replayed by now — SpillQueue's destructor only
    // cleans up files).
    StopPool();
    PublishArenaMetrics();  // the pools die with `live` below
    final_stats = Stats();
    final_spilled = Spilled();
    live.clear();  // unifiers reference the shard trace sets — drop first
    Reassemble();
    return Status::kDone;
  }

  UnifyStats Stats() const {
    UnifyStats total = final_stats;
    for (const auto& ls : live) total += ls->unifier->stats();
    return total;
  }
};

MergeSession::MergeSession(TraceSet& traces, const MergeConfig& config,
                           std::function<void(JFrame&&)> sink)
    : impl_(std::make_unique<Impl>(traces, config, std::move(sink))) {
  ValidateMergeConfig(config);
}

MergeSession::~MergeSession() = default;

MergeSession::Status MergeSession::Poll() {
  if (impl_->failed) {
    throw std::logic_error("MergeSession: poll after a failed poll");
  }
  try {
    return impl_->PollInner();
  } catch (...) {
    impl_->failed = true;
    throw;
  }
}

MergeStreamStats MergeSession::Drain() {
  for (;;) {
    const Status status = Poll();
    if (status == Status::kDone) break;
    // Only live sources ever starve; give their writers a moment.  Batch
    // inputs complete in a single Poll with no sleeps.
    std::this_thread::sleep_for(std::chrono::microseconds(
        status == Status::kBootstrapping ? 1000 : 200));
  }
  MergeStreamStats out;
  out.bootstrap = impl_->bootstrap;
  out.stats = impl_->Stats();
  return out;
}

bool MergeSession::bootstrapped() const { return impl_->bootstrapped; }

const BootstrapResult& MergeSession::bootstrap() const {
  return impl_->bootstrap;
}

UnifyStats MergeSession::stats() const { return impl_->Stats(); }

std::uint64_t MergeSession::jframes_emitted() const { return impl_->emitted; }

std::size_t MergeSession::retained_jframes() const {
  return impl_->Retained();
}

std::size_t MergeSession::peak_retained_jframes() const {
  return impl_->peak_retained;
}

std::uint64_t MergeSession::spilled_jframes() const {
  return impl_->Spilled();
}

std::uint64_t MergeSession::spill_bytes_on_disk() const {
  return impl_->SpillBytesOnDisk();
}

std::int64_t MergeSession::live_lag_us() const { return impl_->LiveLagUs(); }

obs::MetricsSnapshot MergeSession::MetricsSnapshot() const {
  return obs::MetricRegistry::Global().Collect();
}

MergeStreamStats MergeTracesStreaming(TraceSet& traces,
                                      const MergeConfig& config,
                                      std::function<void(JFrame&&)> sink) {
  MergeSession session(traces, config, std::move(sink));
  return session.Drain();
}

MergeResult MergeTraces(TraceSet& traces, const MergeConfig& config) {
  MergeResult result;
  auto stream = MergeTracesStreaming(
      traces, config,
      [&result](JFrame&& jf) { result.jframes.push_back(std::move(jf)); });
  result.bootstrap = std::move(stream.bootstrap);
  result.stats = stream.stats;
  return result;
}

}  // namespace jig
