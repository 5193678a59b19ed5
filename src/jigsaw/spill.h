// On-disk spill tier for shard output queues (docs/FORMATS.md, "Spill
// segment format").
//
// The sharded merge bounds each shard's output queue at
// kMergeQueueWatermark: when a consumer lags (a paused dashboard, a slow
// analysis) the queues fill and backpressure stops the unifiers from
// consuming their traces — the merge stalls with the capture side.  The
// spill tier removes that coupling: once a queue crosses the configured
// threshold the worker drains it into compressed spill segments on disk,
// and the k-way merge transparently replays the segments in FIFO order
// before resuming in-memory hand-off.  A consumer can therefore lag
// minutes behind bounded only by disk, not by kMergeQueueWatermark.
//
// Spill segments are versioned framed files ("JIGS" magic) that reuse the
// trace layer's block framing, LZ compression and error taxonomy: the same
// [u32 0] finalize marker as .jigt, TraceTruncatedError for a file that
// ends mid-structure (a crash mid-spill), TraceCorruptError for bytes that
// can never parse.  A crash is therefore detected and reported, never
// silently merged.  Unlike .jigt there is no index trailer — segments are
// only ever replayed sequentially.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "jigsaw/jframe.h"
#include "trace/trace_file.h"

namespace jig {

// On-disk structure constants, shared with `jigtool inspect-spill`.
inline constexpr char kSpillMagic[4] = {'J', 'I', 'G', 'S'};
inline constexpr std::uint32_t kSpillVersion = 1;
// Same sanity bound as .jigt blocks: anything past this is a garbage
// length field, not a block that has not finished writing.
inline constexpr std::uint32_t kMaxSpillBlockLen = kMaxPackedBlockLen;

// Identifies a segment's place in its shard's spill stream.
struct SpillSegmentHeader {
  std::uint8_t channel = 0;    // shard channel number (1 / 6 / 11)
  std::uint64_t sequence = 0;  // per-shard segment sequence, from 0
};

// Lossless jframe (de)serialization for spill blocks.  Every field of
// JFrame / FrameInstance / Frame round-trips bit-exactly — the spill tier
// sits inside the byte-identical determinism contract, so "close enough"
// is not available.  Deserialization failures surface as the ByteReader's
// std::runtime_error; SpillSegmentReader wraps them as TraceCorruptError.
void SerializeJFrame(const JFrame& jf, Bytes& out);
JFrame DeserializeJFrame(ByteReader& r);

// Appends jframes to one spill segment.  Mirrors TraceFileWriter: records
// buffer into a pending block, Sync() cuts + flushes it (the publication
// point a concurrent reader may rely on), Finish() writes the [u32 0]
// finalize marker.
class SpillSegmentWriter {
 public:
  SpillSegmentWriter(const std::filesystem::path& path,
                     const SpillSegmentHeader& header,
                     std::size_t records_per_block = 256);
  ~SpillSegmentWriter();

  SpillSegmentWriter(const SpillSegmentWriter&) = delete;
  SpillSegmentWriter& operator=(const SpillSegmentWriter&) = delete;

  void Append(const JFrame& jf);
  void Sync();
  void Finish();
  // Closes the segment the way a crash would leave it: the pending uncut
  // block is discarded and NO finalize marker is written, so a later
  // strict read reports truncation and a tail read stops at the last
  // published block.  The monitoring service's simulated-kill path uses
  // this — the destructor's implicit Finish() would forge an end-of-
  // stream marker the "crashed" process never wrote.  Idempotent; the
  // writer is unusable afterwards (Append/Sync/Finish throw).
  void Abandon();

  std::uint64_t records_written() const { return records_written_; }
  // Bytes landed in the file so far (published blocks + header/trailer);
  // excludes the pending uncut block.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void FlushBlock();

  std::FILE* file_ = nullptr;
  std::size_t records_per_block_;
  Bytes pending_;
  Bytes packed_;  // the compressed block, reused block after block
  std::uint32_t pending_count_ = 0;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

// Sequential reader over one spill segment.
//
// Two frontier disciplines, matching the .jigt tail rules:
//   * tail mode (strict = false): a file that ends mid-structure is "no
//     data yet" — Next() returns nullopt and a later call re-polls from
//     the same frontier.  Used for in-session replay of the still-open
//     segment.
//   * strict mode (strict = true): the segment is expected complete, so a
//     missing finalize marker or a torn trailing block is a
//     TraceTruncatedError (a crash mid-spill), and garbage is a
//     TraceCorruptError.  Used by `jigtool inspect-spill` and recovery.
class SpillSegmentReader {
 public:
  explicit SpillSegmentReader(const std::filesystem::path& path,
                              bool strict = true);
  ~SpillSegmentReader();

  SpillSegmentReader(const SpillSegmentReader&) = delete;
  SpillSegmentReader& operator=(const SpillSegmentReader&) = delete;

  const SpillSegmentHeader& header() const { return header_; }
  // nullopt at the frontier (tail mode) or after the finalize marker.
  std::optional<JFrame> Next();
  bool finalized() const { return finalized_; }
  std::uint64_t records_read() const { return records_read_; }
  std::uint64_t blocks_read() const { return blocks_read_; }

 private:
  bool LoadNextBlock();  // false at frontier/terminator

  std::FILE* file_ = nullptr;
  bool strict_;
  SpillSegmentHeader header_;
  std::vector<JFrame> block_;
  std::size_t block_pos_ = 0;
  bool finalized_ = false;
  std::uint64_t records_read_ = 0;
  std::uint64_t blocks_read_ = 0;
};

// Shared disk budget across every shard's SpillQueue.  limit == 0 means
// uncapped.  Workers on different shards charge concurrently, hence the
// atomic; the cap is enforced at block granularity (a shard may overshoot
// by at most one compressed block before it notices).
struct SpillBudget {
  std::uint64_t limit = 0;
  std::atomic<std::uint64_t> used{0};

  bool Full() const {
    return limit != 0 && used.load(std::memory_order_relaxed) >= limit;
  }
  void Charge(std::uint64_t n) {
    used.fetch_add(n, std::memory_order_relaxed);
  }
  // Saturating: releasing more than is charged clamps `used` at 0 instead
  // of wrapping the unsigned counter.  A wrap would leave `used` enormous,
  // latch Full() permanently true, and silently disable the spill tier for
  // the rest of the session — far worse than the transient under-count it
  // papers over.
  void Release(std::uint64_t n) {
    std::uint64_t cur = used.load(std::memory_order_relaxed);
    while (!used.compare_exchange_weak(cur, cur >= n ? cur - n : 0,
                                       std::memory_order_relaxed)) {
    }
  }
};

// FIFO of jframes staged on disk between one shard's unifier and the k-way
// merge.  Push/Sync run on the shard's worker thread; Pop runs on the
// Poll() thread in the merge pass, strictly between worker rounds (the
// round barrier orders them; only the sink overlaps a round, and it never
// touches the spill), so no internal locking is needed — the only
// cross-shard state is the atomic budget.
//
// Segments rotate at ~segment_bytes so replayed data is reclaimed
// promptly: a fully-replayed finished segment is deleted and its bytes
// returned to the budget.  The destructor removes any remaining segments
// — spill files never outlive their session.
class SpillQueue {
 public:
  SpillQueue(std::filesystem::path dir, std::uint8_t channel,
             SpillBudget* budget,
             std::uint64_t segment_bytes = kDefaultSegmentBytes);
  ~SpillQueue();

  SpillQueue(const SpillQueue&) = delete;
  SpillQueue& operator=(const SpillQueue&) = delete;

  // False when the budget is exhausted — the caller keeps jf queued,
  // degrading to plain watermark backpressure.  On success the caller still
  // owns jf (it was serialized, not consumed) and may recycle it.
  bool Push(const JFrame& jf);
  // Publishes everything pushed so far for Pop().
  void Sync();
  // Next jframe in FIFO order; nullopt when everything published has been
  // replayed.
  std::optional<JFrame> Pop();
  // Reclaims every segment once the queue is fully replayed (no-op
  // otherwise).  Pop() deletes *finished* segments as it passes them, but
  // the open segment can only be reclaimed here: it never rotates while
  // the budget refuses Push, so without this hook a drained-dry open
  // segment would pin its budget bytes for the rest of the session.
  // Caller side (the consumer, once it un-latches spilling).
  void ReclaimDrained();

  // True when every pushed jframe has been popped.
  bool Empty() const { return replayed_ == spilled_; }
  std::uint64_t spilled_jframes() const { return spilled_; }
  std::uint64_t replayed_jframes() const { return replayed_; }
  // Current on-disk footprint (bytes of segments not yet reclaimed).
  std::uint64_t bytes_on_disk() const { return bytes_on_disk_; }

  static constexpr std::uint64_t kDefaultSegmentBytes = 8ull << 20;

 private:
  struct Segment {
    std::filesystem::path path;
    bool finished = false;
    std::uint64_t charged = 0;  // bytes charged to the budget so far
  };

  void OpenSegmentForPush();
  void ChargeDelta();
  // Deletes the segment's file and returns its charged bytes to the
  // budget / footprint / gauge, exactly once: `charged` is zeroed so a
  // second call (e.g. destructor after ReclaimDrained, or any future
  // reclaim path racing a teardown) is a no-op instead of a double
  // release.  Every reclaim site funnels through here.
  void ReleaseSegment(Segment& seg);

  std::filesystem::path dir_;
  std::uint8_t channel_;
  SpillBudget* budget_;
  std::uint64_t segment_bytes_;
  std::uint64_t next_sequence_ = 0;
  std::deque<Segment> segments_;  // front = oldest (being replayed)
  std::unique_ptr<SpillSegmentWriter> writer_;  // over segments_.back()
  std::unique_ptr<SpillSegmentReader> reader_;  // over segments_.front()
  std::uint64_t spilled_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t bytes_on_disk_ = 0;
};

}  // namespace jig
