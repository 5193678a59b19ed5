// End-to-end merge pipeline: bootstrap → unify → time-ordered jframes.
//
// Wraps bootstrap synchronization and the streaming unifier behind one
// call.  The merge is a single pass over each trace — the paper's
// efficiency requirement for online operation.
//
// There is one merge engine.  Bootstrap runs globally (channel bridging
// needs every monitor's shared clock), then the trace set is partitioned by
// channel and one unifier runs per channel shard.  Each shard restores
// exact timestamp order with a bounded reorder buffer (the unifier emits
// jframes in seed-pop order, which can run a few microseconds ahead of a
// slightly earlier group still forming), and the shard outputs are
// recombined by a bounded k-way merge keyed on (timestamp, channel).  The
// `threads` setting only decides how many workers step the shards, so
// every setting emits the same stream, byte for byte — pinned against
// committed golden digests in tests/pipeline_test.cc.
//
// Live operation: MergeSession is the resumable form of the same pipeline.
// It runs against tail-follow trace sources (TailFileTrace) that are still
// being written: each Poll() advances exactly as far as the per-radio low
// watermark allows and returns when every further group would need data a
// radio has not produced yet.  Once every writer finalizes, the cumulative
// jframe stream is byte-identical to a batch merge of the finished files —
// MergeTracesStreaming is literally a drain-to-completion wrapper over a
// MergeSession, so there is one code path, not two.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "jigsaw/bootstrap.h"
#include "jigsaw/unifier.h"
#include "obs/metrics.h"

namespace jig {

struct MergeConfig {
  BootstrapConfig bootstrap;
  UnifierConfig unifier;
  // Reorder horizon: jframes are released once the stream has advanced this
  // far past them.  Must exceed the search window (validated at entry — a
  // shorter horizon would release jframes before an earlier group can still
  // form).  The pipeline always keeps at least a 2x search-window margin:
  // the effective horizon is max(reorder_horizon, 2 * search_window), since
  // a group's median timestamp can trail its seed by a full window.
  Micros reorder_horizon = Milliseconds(50);
  // Workers stepping the channel shards.  1 = one worker, run inline on the
  // Poll() thread, least-advanced shard first (no pool is started); 0 = auto
  // (one worker per channel shard, capped by the hardware); N caps the pool
  // at N workers, which then interleave the shards cooperatively.  Every
  // setting produces a byte-identical jframe stream.
  unsigned threads = 1;
  // ---- on-disk spill tier (see src/jigsaw/spill.h and docs/ARCHITECTURE.md,
  // "The spill tier") ----------------------------------------------------
  // Directory for spill segments; empty (the default) disables spilling.
  // When a shard's output queue still holds spill_threshold jframes at
  // worker-round entry after a merge pass that stopped at a gating shard —
  // i.e. the consumer could not take them, which is actual lag rather than
  // the transient fill of a round in progress or the residue of a pass
  // that stopped at its staging cap — the worker drains the queue into
  // .jigs segments under this directory and the k-way merge replays them
  // in order before resuming in-memory hand-off.  A consumer can therefore
  // lag far behind without the queue watermark stalling the capture-side
  // unifiers, while a merge whose consumer keeps up touches disk only for
  // residue left behind a gating shard.
  // Segments are removed as they are replayed and when the session ends;
  // the directory should be private to one session.
  // Spilling leaves the emitted stream byte-identical: on, off, or
  // engaging/disengaging mid-stream, for every `threads` setting (pinned in
  // tests/spill_test.cc).
  std::filesystem::path spill_dir;
  // Queue depth that engages the spill tier.  Validated at entry when
  // spill_dir is set: must be positive and no larger than
  // kMergeQueueWatermark (a higher threshold could never trigger).
  std::size_t spill_threshold = 2048;
  // Cap on the total on-disk footprint of live spill segments across all
  // shards; 0 = uncapped.  At the cap (enforced at block granularity) the
  // pipeline degrades to the plain watermark backpressure it has without a
  // spill tier.
  std::uint64_t max_spill_bytes = 0;
  // Pin shard worker threads round-robin across CPUs (Linux:
  // pthread_setaffinity_np; elsewhere, and on failure, silently a no-op).
  // Scheduling only — the merge pass reads the shard queues only between
  // rounds (the sink overlaps a round, the merge pass does not), so the
  // merge order is fixed wherever the workers run and the stream stays
  // byte-identical.
  bool pin_threads = false;
};

// Throws std::invalid_argument on inconsistent configuration (today:
// reorder_horizon <= unifier.search_window, a non-positive window, or a
// spill_threshold of zero / above kMergeQueueWatermark when spill_dir is
// set).  Called by MergeTraces / MergeTracesStreaming at entry.
void ValidateMergeConfig(const MergeConfig& config);

struct MergeResult {
  std::vector<JFrame> jframes;  // strictly time-ordered
  BootstrapResult bootstrap;
  UnifyStats stats;
};

// Convenience batch merge: collects every jframe in memory.
MergeResult MergeTraces(TraceSet& traces, const MergeConfig& config = {});

// Streaming variant: jframes are delivered to `sink` in timestamp order.
// The sink runs on the calling thread in every threading mode (see
// MergeSession for what it may do).
struct MergeStreamStats {
  BootstrapResult bootstrap;
  UnifyStats stats;
};
MergeStreamStats MergeTracesStreaming(TraceSet& traces,
                                      const MergeConfig& config,
                                      std::function<void(JFrame&&)> sink);

// Per-shard buffering bound: a shard whose output queue plus its jframes
// staged for the sink hold this many jframes stops unifying until the
// consumer drains it, so retention stays bounded even when one radio lags
// far behind the rest (the lagging shard gates emission; the others
// throttle here).  A merge pass stages at most half of it per shard.
inline constexpr std::size_t kMergeQueueWatermark = 4096;

// Lag between a captured frontier and an emitted timestamp, clamped at
// zero.  Lag means "how far output trails capture": an emission that
// momentarily outruns a racing capture-frontier update is zero lag, not
// negative lag — a raw difference here once fed negative samples into
// jig_merge_emit_lag_us and let live_lag_us() report below zero.
constexpr std::int64_t ClampedLagUs(std::int64_t capture_frontier_us,
                                    std::int64_t emitted_ts_us) {
  return capture_frontier_us > emitted_ts_us
             ? capture_frontier_us - emitted_ts_us
             : 0;
}

// Resumable merge over (possibly live) trace sources.
//
// Lifecycle: construct over a TraceSet (which must outlive the session;
// the streams are handed back — reassembled from any channel partition —
// when the session completes or is destroyed), then call Poll() whenever
// the underlying sources may have grown:
//
//   * kBootstrapping — some radio's bootstrap sync window has not filled
//     yet.  Nothing is emitted; the session buffers nothing (the data sits
//     in the trace files) and will re-read every trace from offset zero
//     once the window fills — late bootstrap costs nothing but the wait.
//   * kStarved — bootstrap is done and the merge advanced as far as the
//     per-radio low watermark allows; at least one live trace must grow
//     (or finalize) before any further group can be formed.
//   * kDone — every source finalized, every jframe emitted.  The
//     cumulative stream is byte-identical to MergeTraces over the same
//     (finished) inputs for every `threads` setting.
//
// The sink runs on the Poll()-calling thread in every threading mode.  In
// pool mode it runs while the shard workers unify the next round, so it
// must not call back into the session.  Poll() returns only with no round
// in flight and nothing staged for the sink — a consistent cut, which is
// what checkpoints are taken at — and a sink exception leaves Poll() only
// after the round in flight has joined (the session is failed from then
// on).
class MergeSession {
 public:
  enum class Status { kBootstrapping, kStarved, kDone };

  // Validates the config (throws std::invalid_argument like the batch
  // entry points).  No trace is read until the first Poll().
  MergeSession(TraceSet& traces, const MergeConfig& config,
               std::function<void(JFrame&&)> sink);
  ~MergeSession();

  MergeSession(const MergeSession&) = delete;
  MergeSession& operator=(const MergeSession&) = delete;

  // Advances until quiescent: returns only when nothing further can happen
  // without new data.  Never blocks waiting for a writer.
  Status Poll();

  // Polls to completion, sleeping briefly whenever the sources are starved
  // — the batch semantics.  Requires every writer to eventually finalize.
  MergeStreamStats Drain();

  bool bootstrapped() const;
  // Valid once bootstrapped() is true.
  const BootstrapResult& bootstrap() const;
  // Running totals; complete once Poll() returned kDone.
  UnifyStats stats() const;
  std::uint64_t jframes_emitted() const;
  // Jframes currently buffered between the unifiers and the sink (reorder
  // buffers, shard queues and the batch staged for the sink) and the
  // session-lifetime high-water mark — the bounded-retention guarantee
  // under starved/uneven sources.
  std::size_t retained_jframes() const;
  std::size_t peak_retained_jframes() const;
  // Spill-tier counters (always 0 with spilling disabled):
  // lifetime jframes staged through disk, and the current on-disk footprint
  // of not-yet-reclaimed segments.
  std::uint64_t spilled_jframes() const;
  std::uint64_t spill_bytes_on_disk() const;
  // How far (capture-time us) the emitted stream trails the newest jframe
  // any unifier has produced.  0 until both frontiers exist.  For a live
  // follow this is the merge lag a dashboard wants; for a batch merge it is
  // just the reorder-horizon depth at the moment of the call.
  std::int64_t live_lag_us() const;
  // Aggregated view of the process-global metric registry (every stage —
  // trace IO, bootstrap, shards, spill, merge, analysis bus — reports into
  // one registry, so this is a whole-pipeline snapshot, not a per-session
  // one).  Feed it to obs::ToPrometheusText / obs::ToJson.
  obs::MetricsSnapshot MetricsSnapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jig
