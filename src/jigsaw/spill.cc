#include "jigsaw/spill.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "trace/framed_io.h"
#include "util/compression.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

// Shared framed-IO primitives (src/trace/framed_io.h): a short read at
// EOF is TraceTruncatedError.  In strict mode that is a crash mid-spill;
// tail callers translate it to "no data yet" instead
// (SpillSegmentReader::LoadNextBlock).
constexpr const char* kWhat = "spill segment";

void WriteAll(std::FILE* f, const void* data, std::size_t n) {
  framed_io::WriteAll(f, data, n, kWhat);
}
void WriteU32(std::FILE* f, std::uint32_t v) {
  framed_io::WriteU32(f, v, kWhat);
}
void ReadAll(std::FILE* f, void* data, std::size_t n) {
  framed_io::ReadAll(f, data, n, kWhat);
}
std::uint32_t ReadU32(std::FILE* f) { return framed_io::ReadU32(f, kWhat); }

void SerializeSegmentHeader(const SpillSegmentHeader& h, Bytes& out) {
  ByteWriter w(out);
  w.U8(h.channel);
  w.U64(h.sequence);
}

SpillSegmentHeader DeserializeSegmentHeader(ByteReader& r) {
  SpillSegmentHeader h;
  h.channel = r.U8();
  h.sequence = r.U64();
  return h;
}

constexpr std::uint8_t kFrameRetry = 0x01;
constexpr std::uint8_t kFrameFromDs = 0x02;
constexpr std::uint8_t kFrameToDs = 0x04;

}  // namespace

// ---------------------------------------------------------------------------
// JFrame (de)serialization.  The layout is fixed in docs/FORMATS.md; any
// change here needs a kSpillVersion bump and a spec update.

void SerializeJFrame(const JFrame& jf, Bytes& out) {
  ByteWriter w(out);
  w.I64(jf.timestamp);
  w.I64(jf.dispersion);
  w.U8(static_cast<std::uint8_t>(jf.channel));
  w.U8(static_cast<std::uint8_t>(jf.rate));
  w.U32(jf.wire_len);
  w.U64(jf.digest);
  // Representative frame, field by field (not wire bytes: Frame carries
  // fields the wire form does not, e.g. the PLCP-delivered rate).
  const Frame& f = jf.frame;
  w.U8(static_cast<std::uint8_t>(f.type));
  w.U8(static_cast<std::uint8_t>((f.retry ? kFrameRetry : 0) |
                                 (f.from_ds ? kFrameFromDs : 0) |
                                 (f.to_ds ? kFrameToDs : 0)));
  w.U16(f.duration_us);
  w.Raw(f.addr1.octets());
  w.Raw(f.addr2.octets());
  w.Raw(f.addr3.octets());
  w.U16(f.sequence);
  w.U8(static_cast<std::uint8_t>(f.rate));
  w.Varint(f.body.size());
  w.Raw(f.body);
  w.Varint(jf.instances.size());
  for (const FrameInstance& inst : jf.instances) {
    w.U16(inst.radio);
    w.I64(inst.local_timestamp);
    w.I64(inst.universal_timestamp);
    w.U32(std::bit_cast<std::uint32_t>(inst.rssi_dbm));  // bit-exact float
    w.U8(static_cast<std::uint8_t>(inst.outcome));
  }
}

JFrame DeserializeJFrame(ByteReader& r) {
  JFrame jf;
  jf.timestamp = r.I64();
  jf.dispersion = r.I64();
  jf.channel = static_cast<Channel>(r.U8());
  jf.rate = static_cast<PhyRate>(r.U8());
  jf.wire_len = r.U32();
  jf.digest = r.U64();
  Frame& f = jf.frame;
  f.type = static_cast<FrameType>(r.U8());
  const std::uint8_t flags = r.U8();
  f.retry = (flags & kFrameRetry) != 0;
  f.from_ds = (flags & kFrameFromDs) != 0;
  f.to_ds = (flags & kFrameToDs) != 0;
  f.duration_us = r.U16();
  const auto read_addr = [&r] {
    std::array<std::uint8_t, 6> octets{};
    const auto raw = r.Raw(6);
    std::memcpy(octets.data(), raw.data(), 6);
    return MacAddress(octets);
  };
  f.addr1 = read_addr();
  f.addr2 = read_addr();
  f.addr3 = read_addr();
  f.sequence = r.U16();
  f.rate = static_cast<PhyRate>(r.U8());
  const auto body_len = static_cast<std::size_t>(r.Varint());
  const auto body = r.Raw(body_len);
  f.body.assign(body.begin(), body.end());
  const auto n_instances = static_cast<std::size_t>(r.Varint());
  // Each instance occupies 23 wire bytes (u16+i64+i64+u32+u8); a declared
  // count the remaining input cannot hold is corrupt, and reserving for it
  // unchecked would let a hostile varint demand gigabytes up front.
  constexpr std::size_t kInstanceWireBytes = 2 + 8 + 8 + 4 + 1;
  if (n_instances > r.remaining() / kInstanceWireBytes) {
    throw std::runtime_error("JFrame instance count exceeds available input");
  }
  jf.instances.reserve(n_instances);
  for (std::size_t i = 0; i < n_instances; ++i) {
    FrameInstance inst;
    inst.radio = r.U16();
    inst.local_timestamp = r.I64();
    inst.universal_timestamp = r.I64();
    inst.rssi_dbm = std::bit_cast<float>(r.U32());
    inst.outcome = static_cast<RxOutcome>(r.U8());
    jf.instances.push_back(inst);
  }
  return jf;
}

// ---------------------------------------------------------------------------
// SpillSegmentWriter.

SpillSegmentWriter::SpillSegmentWriter(const fs::path& path,
                                       const SpillSegmentHeader& header,
                                       std::size_t records_per_block)
    : records_per_block_(records_per_block) {
  file_ = std::fopen(path.string().c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("cannot open spill segment for writing: " +
                             path.string());
  }
  WriteAll(file_, kSpillMagic, 4);
  WriteU32(file_, kSpillVersion);
  Bytes hdr;
  SerializeSegmentHeader(header, hdr);
  WriteU32(file_, static_cast<std::uint32_t>(hdr.size()));
  WriteAll(file_, hdr.data(), hdr.size());
  std::fflush(file_);  // publish the header before the first block lands
  bytes_written_ = 12 + hdr.size();
}

SpillSegmentWriter::~SpillSegmentWriter() {
  try {
    if (!finished_) Finish();
  } catch (...) {
    // Destructor must not throw; an explicit Finish() reports errors.
  }
  if (file_) std::fclose(file_);
}

void SpillSegmentWriter::Append(const JFrame& jf) {
  if (finished_) throw std::logic_error("Append after Finish");
  SerializeJFrame(jf, pending_);
  ++pending_count_;
  ++records_written_;
  if (pending_count_ >= records_per_block_) FlushBlock();
}

void SpillSegmentWriter::FlushBlock() {
  if (pending_count_ == 0) return;
  // Fast level: spill blocks are written on the shard worker's round (the
  // merge hot path) and live only until replay, so compression latency
  // matters more than ratio here.
  LzCompress(pending_, LzLevel::kFast, packed_);
  WriteU32(file_, static_cast<std::uint32_t>(packed_.size()));
  WriteAll(file_, packed_.data(), packed_.size());
  bytes_written_ += 4 + packed_.size();
  pending_.clear();
  pending_count_ = 0;
}

void SpillSegmentWriter::Sync() {
  if (finished_) throw std::logic_error("Sync after Finish");
  FlushBlock();
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("spill segment: flush");
  }
}

void SpillSegmentWriter::Finish() {
  if (finished_) return;
  FlushBlock();
  WriteU32(file_, 0);  // finalize marker, same convention as .jigt
  bytes_written_ += 4;
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("spill segment: flush");
  }
  finished_ = true;
}

void SpillSegmentWriter::Abandon() {
  if (finished_) return;
  // Drop the uncut block — a killed process never got to publish it —
  // and leave the file marker-less, exactly as SIGKILL would.
  pending_.clear();
  pending_count_ = 0;
  finished_ = true;
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// SpillSegmentReader.

SpillSegmentReader::SpillSegmentReader(const fs::path& path, bool strict)
    : strict_(strict) {
  file_ = std::fopen(path.string().c_str(), "rb");
  if (!file_) {
    throw std::runtime_error("cannot open spill segment for reading: " +
                             path.string());
  }
  // Everything after the fopen sits inside one try so the FILE* is closed
  // on ANY parse failure — including the magic read, which previously sat
  // outside and leaked the descriptor on a truncated-magic segment.
  try {
    char magic[4];
    ReadAll(file_, magic, 4);
    if (std::memcmp(magic, kSpillMagic, 4) != 0) {
      throw TraceCorruptError("bad spill segment magic: " + path.string());
    }
    const std::uint32_t version = ReadU32(file_);
    if (version != kSpillVersion) {
      throw TraceCorruptError("unsupported spill segment version " +
                              std::to_string(version) + ": " + path.string());
    }
    const std::uint32_t hdr_len = ReadU32(file_);
    if (hdr_len > kMaxSpillBlockLen) {
      throw TraceCorruptError("garbage spill header length: " + path.string());
    }
    Bytes hdr(hdr_len);
    ReadAll(file_, hdr.data(), hdr_len);
    ByteReader hr(hdr);
    try {
      header_ = DeserializeSegmentHeader(hr);
    } catch (const std::exception& e) {
      // ByteReader underflow is a plain runtime_error; map it into the
      // taxonomy so callers only ever see TraceError for bad segment data.
      throw TraceCorruptError(std::string("malformed spill segment header: ") +
                              e.what());
    }
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

SpillSegmentReader::~SpillSegmentReader() {
  if (file_) std::fclose(file_);
}

bool SpillSegmentReader::LoadNextBlock() {
  if (finalized_) return false;
  // Remember the frontier: a torn structure in tail mode rewinds here so a
  // later call re-polls once the writer has published more.
  const long frontier = std::ftell(file_);
  std::uint32_t packed_len = 0;
  Bytes packed;
  try {
    packed_len = ReadU32(file_);
    if (packed_len == 0) {
      finalized_ = true;  // the [u32 0] finalize marker
      return false;
    }
    if (packed_len > kMaxSpillBlockLen) {
      throw TraceCorruptError("garbage spill block length");
    }
    packed.resize(packed_len);
    ReadAll(file_, packed.data(), packed_len);
  } catch (const TraceTruncatedError&) {
    if (strict_) throw;
    // Tail mode: the writer has not published this far yet.
    std::clearerr(file_);
    if (std::fseek(file_, frontier, SEEK_SET) != 0) {
      throw TraceError("spill segment: seek to frontier");
    }
    return false;
  }
  try {
    const Bytes raw = LzDecompress(packed);
    ByteReader r(raw);
    block_.clear();
    block_pos_ = 0;
    while (!r.AtEnd()) block_.push_back(DeserializeJFrame(r));
  } catch (const TraceError&) {
    throw;
  } catch (const LzTruncatedError& e) {
    if (strict_) {
      // The block's framing is on disk but its payload stops short: a crash
      // mid-spill, same diagnosis as a torn trailing structure.
      throw TraceTruncatedError(std::string("spill block payload truncated: ") +
                                e.what());
    }
    // Tail mode: the length word said the block is complete, so a short
    // payload can never heal by waiting — corruption, not frontier.
    throw TraceCorruptError(std::string("spill block payload truncated: ") +
                            e.what());
  } catch (const std::exception& e) {
    throw TraceCorruptError(std::string("malformed spill block contents: ") +
                            e.what());
  }
  ++blocks_read_;
  return true;
}

std::optional<JFrame> SpillSegmentReader::Next() {
  while (block_pos_ >= block_.size()) {
    // In strict mode a segment that ends between blocks without the
    // finalize marker throws TraceTruncatedError from LoadNextBlock (the
    // length-word read hits EOF): a writer that died between blocks is
    // still a crash mid-spill, not a complete segment.
    if (!LoadNextBlock()) return std::nullopt;
  }
  ++records_read_;
  return std::move(block_[block_pos_++]);
}

// ---------------------------------------------------------------------------
// SpillQueue.

namespace {

struct SpillMetrics {
  obs::Counter& segments_written = obs::MetricRegistry::Global().GetCounter(
      "jig_spill_segments_written_total", "Spill segments opened on disk");
  obs::Counter& segments_replayed = obs::MetricRegistry::Global().GetCounter(
      "jig_spill_segments_replayed_total",
      "Spill segments fully replayed and reclaimed");
  obs::Counter& jframes_spilled = obs::MetricRegistry::Global().GetCounter(
      "jig_spill_jframes_spilled_total", "JFrames pushed to the spill tier");
  obs::Counter& jframes_replayed = obs::MetricRegistry::Global().GetCounter(
      "jig_spill_jframes_replayed_total",
      "JFrames replayed from the spill tier");
  obs::Gauge& bytes_on_disk = obs::MetricRegistry::Global().GetGauge(
      "jig_spill_bytes_on_disk", "Live spill bytes across all shards");
  obs::Counter& backpressure = obs::MetricRegistry::Global().GetCounter(
      "jig_spill_backpressure_total",
      "Pushes refused because the spill byte budget was exhausted");
};

SpillMetrics& Metrics() {
  static SpillMetrics* m = new SpillMetrics();
  return *m;
}

}  // namespace

SpillQueue::SpillQueue(fs::path dir, std::uint8_t channel,
                       SpillBudget* budget, std::uint64_t segment_bytes)
    : dir_(std::move(dir)),
      channel_(channel),
      budget_(budget),
      segment_bytes_(segment_bytes) {
  fs::create_directories(dir_);
}

SpillQueue::~SpillQueue() {
  reader_.reset();
  writer_.reset();
  // Best effort, and idempotent per segment: a reader destructing
  // mid-replay while the writer had rotated must not release any
  // segment's bytes twice (ReleaseSegment zeroes `charged`).
  for (Segment& seg : segments_) ReleaseSegment(seg);
  segments_.clear();
}

void SpillQueue::ReleaseSegment(Segment& seg) {
  std::error_code ec;  // best effort: also runs from the destructor
  fs::remove(seg.path, ec);
  if (seg.charged == 0) return;  // already released: exactly-once
  bytes_on_disk_ -= seg.charged;
  Metrics().bytes_on_disk.Add(-static_cast<std::int64_t>(seg.charged));
  if (budget_ != nullptr) budget_->Release(seg.charged);
  seg.charged = 0;
}

void SpillQueue::OpenSegmentForPush() {
  // Rotate once the open segment is big enough: a finished segment can be
  // deleted as soon as it is replayed, so rotation is what bounds how long
  // already-replayed bytes linger on disk.
  if (writer_ != nullptr &&
      writer_->bytes_written() >= segment_bytes_) {
    writer_->Finish();
    ChargeDelta();
    segments_.back().finished = true;
    writer_.reset();
  }
  if (writer_ == nullptr) {
    SpillSegmentHeader header;
    header.channel = channel_;
    header.sequence = next_sequence_++;
    Segment seg;
    seg.path = dir_ / ("ch" + std::to_string(channel_) + "-" +
                       std::to_string(header.sequence) + ".jigs");
    writer_ = std::make_unique<SpillSegmentWriter>(seg.path, header);
    segments_.push_back(std::move(seg));
    Metrics().segments_written.Add(1);
    ChargeDelta();
  }
}

// Brings the budget/footprint accounting up to the writer's published
// bytes.  Called after every publication point (Sync / Finish / open).
void SpillQueue::ChargeDelta() {
  if (writer_ == nullptr || segments_.empty()) return;
  Segment& seg = segments_.back();
  const std::uint64_t written = writer_->bytes_written();
  if (written > seg.charged) {
    const std::uint64_t delta = written - seg.charged;
    seg.charged = written;
    bytes_on_disk_ += delta;
    Metrics().bytes_on_disk.Add(static_cast<std::int64_t>(delta));
    if (budget_ != nullptr) budget_->Charge(delta);
  }
}

bool SpillQueue::Push(const JFrame& jf) {
  if (budget_ != nullptr && budget_->Full()) {
    Metrics().backpressure.Add(1);
    return false;
  }
  OpenSegmentForPush();
  writer_->Append(jf);
  // Charge after every append, not just at Sync: Append flushes a block
  // to disk whenever the pending batch fills, and the budget check above
  // must see those bytes — this is what bounds cap overshoot to one
  // compressed block per shard rather than a whole drain.
  ChargeDelta();
  ++spilled_;
  Metrics().jframes_spilled.Add(1);
  return true;
}

void SpillQueue::Sync() {
  if (writer_ == nullptr) return;
  writer_->Sync();
  ChargeDelta();
}

void SpillQueue::ReclaimDrained() {
  if (!Empty() || segments_.empty()) return;
  reader_.reset();
  writer_.reset();  // finalizes the open segment; it is deleted next
  for (Segment& seg : segments_) ReleaseSegment(seg);
  segments_.clear();
}

std::optional<JFrame> SpillQueue::Pop() {
  while (!segments_.empty()) {
    if (reader_ == nullptr) {
      // Tail mode: the front segment may still be the writer's open one;
      // only published blocks are visible, which is exactly the contract
      // (Push/Sync happen-before Pop via the round barrier).
      reader_ = std::make_unique<SpillSegmentReader>(segments_.front().path,
                                                     /*strict=*/false);
    }
    if (auto jf = reader_->Next()) {
      ++replayed_;
      Metrics().jframes_replayed.Add(1);
      return jf;
    }
    Segment& front = segments_.front();
    if (!front.finished || !reader_->finalized()) {
      // Frontier of the still-open segment: nothing further is published.
      return std::nullopt;
    }
    // Finished segment fully replayed: reclaim it.
    reader_.reset();
    Metrics().segments_replayed.Add(1);
    ReleaseSegment(front);
    segments_.pop_front();
  }
  return std::nullopt;
}

}  // namespace jig
