// A set of per-radio record streams — the input shape of the Jigsaw merge.
//
// Jigsaw's merge pass reads every radio's trace in parallel, one record at a
// time (Section 4 requires a single streaming pass for online operation).
// RecordStream abstracts over where those records live: an in-memory buffer
// produced directly by the simulator, or an on-disk jigdump-style file.
#pragma once

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "trace/record.h"
#include "trace/trace_file.h"

namespace jig {

class RecordStream {
 public:
  virtual ~RecordStream() = default;
  virtual const TraceHeader& header() const = 0;
  virtual std::optional<CaptureRecord> Next() = 0;
  // Zero-copy scan: advances like Next() but hands back a pointer instead
  // of materializing a record (bootstrap reads every record of its window
  // this way).  nullptr at end of stream; the pointer is invalidated by the
  // next Next/NextRef/Rewind call.
  virtual const CaptureRecord* NextRef() = 0;
  virtual void Rewind() = 0;
  // Live-source distinction: when Next()/NextRef() yields nothing, true
  // means end-of-capture, false means "no data yet — the writer may still
  // append" (tail-follow sources).  Batch streams are always finalized, so
  // their nullopt remains authoritative EOF.
  virtual bool Finalized() const { return true; }
};

// In-memory trace, filled by the simulator's monitors.
class MemoryTrace final : public RecordStream {
 public:
  MemoryTrace(TraceHeader header, std::vector<CaptureRecord> records)
      : header_(header), records_(std::move(records)) {}

  const TraceHeader& header() const override { return header_; }
  std::optional<CaptureRecord> Next() override {
    if (pos_ >= records_.size()) return std::nullopt;
    return records_[pos_++];
  }
  const CaptureRecord* NextRef() override {
    if (pos_ >= records_.size()) return nullptr;
    return &records_[pos_++];
  }
  void Rewind() override { pos_ = 0; }

  const std::vector<CaptureRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

 private:
  TraceHeader header_;
  std::vector<CaptureRecord> records_;
  std::size_t pos_ = 0;
};

// File-backed trace.
class FileTrace final : public RecordStream {
 public:
  explicit FileTrace(const std::filesystem::path& path) : reader_(path) {}

  const TraceHeader& header() const override { return reader_.header(); }
  std::optional<CaptureRecord> Next() override { return reader_.Next(); }
  // Points into the reader's decoded-block buffer: valid until the next
  // advance, per the RecordStream contract — no per-record copy.
  const CaptureRecord* NextRef() override { return reader_.NextRef(); }
  void Rewind() override { reader_.Rewind(); }

  TraceFileReader& reader() { return reader_; }

 private:
  TraceFileReader reader_;
};

// Pass-through record stream that tracks its consumption high-water mark:
// the most records its cursor has ever passed.  The mark survives Rewind,
// so the merge's re-reads from record zero (bootstrap readiness scan,
// BootstrapSynchronize, unifiers) do not move it.  `on_advance`, when set,
// runs once per record, the first time the cursor passes it; re-reads
// below the mark make no call.
class HighWaterTrace final : public RecordStream {
 public:
  using OnAdvance = std::function<void(const CaptureRecord&)>;

  explicit HighWaterTrace(std::unique_ptr<RecordStream> inner,
                          OnAdvance on_advance = nullptr)
      : owned_(std::move(inner)),
        inner_(*owned_),
        on_advance_(std::move(on_advance)) {}
  // Borrows `inner`, which must outlive the tap.
  explicit HighWaterTrace(RecordStream& inner, OnAdvance on_advance = nullptr)
      : inner_(inner), on_advance_(std::move(on_advance)) {}

  const TraceHeader& header() const override { return inner_.header(); }
  std::optional<CaptureRecord> Next() override {
    std::optional<CaptureRecord> rec = inner_.Next();
    Advance(rec ? &*rec : nullptr);
    return rec;
  }
  const CaptureRecord* NextRef() override {
    const CaptureRecord* rec = inner_.NextRef();
    Advance(rec);
    return rec;
  }
  void Rewind() override {
    inner_.Rewind();
    pos_ = 0;
    at_end_ = false;
  }
  bool Finalized() const override { return inner_.Finalized(); }

  std::uint64_t high_water() const { return high_; }

  // True once every record the source will ever hold has passed the mark:
  // the source is finalized, this cursor was probed past its end, and no
  // rewound re-read is still below the mark.  Finalized() alone is not
  // enough — the reader may not have consumed the tail yet.
  bool Drained() const { return at_end_ && pos_ == high_; }

 private:
  void Advance(const CaptureRecord* rec) {
    if (rec == nullptr) {
      at_end_ = inner_.Finalized();
      return;
    }
    if (++pos_ <= high_) return;
    high_ = pos_;
    if (on_advance_) on_advance_(*rec);
  }

  std::unique_ptr<RecordStream> owned_;  // null when borrowing
  RecordStream& inner_;
  OnAdvance on_advance_;
  std::uint64_t pos_ = 0;
  std::uint64_t high_ = 0;
  bool at_end_ = false;
};

struct ChannelShard;

// Owning collection of streams, one per radio.
class TraceSet {
 public:
  TraceSet() = default;

  void Add(std::unique_ptr<RecordStream> stream) {
    streams_.push_back(std::move(stream));
  }

  std::size_t size() const { return streams_.size(); }
  bool empty() const { return streams_.empty(); }
  RecordStream& at(std::size_t i) { return *streams_[i]; }
  const RecordStream& at(std::size_t i) const { return *streams_[i]; }

  void RewindAll() {
    for (auto& s : streams_) s->Rewind();
  }

  // Opens every *.jigt file in a directory as one trace set, ordered by
  // radio id so analyses are deterministic regardless of directory order.
  static TraceSet OpenDirectory(const std::filesystem::path& dir);

  // Live counterpart of OpenDirectory: polls `dir` until `expected_traces`
  // *.jigt files have readable headers (with expected_traces == 0, until
  // the file count is non-zero and has held still for a settle period of
  // ~10 poll intervals — pass the expected count when you know it; the
  // trace set cannot grow once this returns), then opens them all as
  // tail-follow streams ordered by radio id.  Throws std::runtime_error
  // if the deadline passes first.
  static TraceSet FollowDirectory(
      const std::filesystem::path& dir, std::size_t expected_traces = 0,
      std::chrono::milliseconds poll_interval = std::chrono::milliseconds(20),
      std::chrono::milliseconds timeout = std::chrono::seconds(30));

  // Writes every stream out as jigdump-style files into `dir` (one file per
  // radio, named r<id>.jigt) and returns the paths.  Streams are rewound.
  std::vector<std::filesystem::path> WriteDirectory(
      const std::filesystem::path& dir);

  // Moves every stream into per-channel shards — the parallel unit of the
  // sharded merge: 802.11 instances of one transmission only ever appear on
  // monitors tuned to the same channel, so each shard can be unified
  // independently.  This set becomes empty; shards are ordered by channel
  // number and preserve this set's relative stream order within a channel.
  std::vector<ChannelShard> PartitionByChannel();

  // Inverse of PartitionByChannel: moves every shard stream back into this
  // (empty) set at its recorded source index, restoring the original order.
  void AdoptShards(std::vector<ChannelShard> shards);

 private:
  std::vector<std::unique_ptr<RecordStream>> streams_;
};

// One channel's slice of a TraceSet.  `source_index[i]` is the position
// stream i held in the originating set (needed to slice per-trace state such
// as bootstrap offsets, and to reassemble the set afterwards).
struct ChannelShard {
  Channel channel = Channel::kCh1;
  TraceSet traces;
  std::vector<std::size_t> source_index;
};

// Incremental writer for a directory of per-radio traces — the live
// counterpart of TraceSet::WriteDirectory, letting the simulator (or a
// capture daemon) act as a live writer that tail-follow readers consume
// concurrently.  Append() buffers per radio; Sync() cuts every radio's
// pending records into a published block; Finalize() writes a radio's
// index trailer + finalize marker (after which Append to it throws).
class TraceSetWriter {
 public:
  explicit TraceSetWriter(const std::filesystem::path& dir) : dir_(dir) {
    std::filesystem::create_directories(dir_);
  }

  // Registers a radio and creates its r<id>.jigt file (header published
  // immediately).  Returns the slot index used by Append/Finalize.
  std::size_t AddRadio(const TraceHeader& header,
                       std::size_t records_per_block = 512) {
    std::string name = "r";
    name += std::to_string(header.radio);
    name += ".jigt";
    const auto path = dir_ / name;
    writers_.push_back(
        std::make_unique<TraceFileWriter>(path, header, records_per_block));
    finalized_.push_back(false);
    paths_.push_back(path);
    return writers_.size() - 1;
  }

  void Append(std::size_t slot, const CaptureRecord& rec) {
    writers_.at(slot)->Append(rec);
  }

  // Publishes everything appended so far to concurrent tail readers.
  void Sync() {
    for (std::size_t i = 0; i < writers_.size(); ++i) {
      if (!finalized_[i]) writers_[i]->Sync();
    }
  }

  void Finalize(std::size_t slot) {
    if (!finalized_.at(slot)) {
      writers_[slot]->Finish();
      finalized_[slot] = true;
    }
  }

  void FinalizeAll() {
    for (std::size_t i = 0; i < writers_.size(); ++i) Finalize(i);
  }

  std::size_t size() const { return writers_.size(); }
  const std::vector<std::filesystem::path>& paths() const { return paths_; }

 private:
  std::filesystem::path dir_;
  std::vector<std::unique_ptr<TraceFileWriter>> writers_;
  std::vector<bool> finalized_;
  std::vector<std::filesystem::path> paths_;
};

}  // namespace jig
