// The jframe: one physical transmission, unified across monitors.
//
// After bootstrap synchronization, Jigsaw merges every radio's instance of
// the same transmission into a single jframe holding a universal timestamp,
// the full frame contents, and the identity of the radios that heard each
// instance (paper Section 4.2, Figure 2).  jframes are the substrate for
// all link/transport reconstruction.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "wifi/channel.h"
#include "wifi/frame.h"

namespace jig {

struct FrameInstance {
  RadioId radio = kInvalidRadio;
  LocalMicros local_timestamp = 0;
  // The instance's timestamp mapped into universal time by the clock state
  // in effect when it was unified.
  UniversalMicros universal_timestamp = 0;
  float rssi_dbm = 0.0F;
  RxOutcome outcome = RxOutcome::kOk;
};

struct JFrame {
  // Median of the valid instances' universal timestamps (reception start).
  UniversalMicros timestamp = 0;
  // Group dispersion: latest minus earliest instance timestamp (Figure 4's
  // metric).  Zero for single-instance jframes.
  Micros dispersion = 0;
  // Representative decoded content (from the first FCS-valid instance).
  Frame frame;
  // Channel the frame was captured on (from the receiving radios).
  Channel channel = Channel::kCh1;
  PhyRate rate = PhyRate::kB1;
  std::uint32_t wire_len = 0;   // frame length on the air
  std::uint64_t digest = 0;     // ContentDigest of captured bytes
  std::vector<FrameInstance> instances;

  std::size_t InstanceCount() const { return instances.size(); }
  std::size_t ValidInstanceCount() const {
    std::size_t n = 0;
    for (const auto& i : instances) {
      if (i.outcome == RxOutcome::kOk) ++n;
    }
    return n;
  }

  // End of the transmission on the air.
  UniversalMicros EndTime() const {
    return timestamp + TxDurationMicros(rate, wire_len);
  }

  // Returns all fields to default-constructed values while keeping the
  // instances and frame-body heap allocations, so a pooled jframe can be
  // rebuilt without reallocating.
  void Reset() {
    timestamp = 0;
    dispersion = 0;
    frame.Reset();
    channel = Channel::kCh1;
    rate = PhyRate::kB1;
    wire_len = 0;
    digest = 0;
    instances.clear();
  }
};

// Bounded freelist of jframes for the merge hot path: the unifier acquires,
// the emit funnel (or spill drain) recycles the carcass once the consumer
// has taken what it wants, and steady-state emission stops allocating.
//
// Deliberately unsynchronized.  Within a MergeSession each shard owns one
// pool, and the round barrier serializes worker-phase accesses (unifier
// Acquire, spill-drain Recycle) against merge-phase accesses (the staged
// batch's Recycle, after the round that overlapped its emission has
// joined) — the same happens-before discipline that protects the shard
// queues themselves.
class JFramePool {
 public:
  // `max_pooled` caps the parked carcasses; the merge sets it to what one
  // round can hand back to a shard.
  explicit JFramePool(std::size_t max_pooled) : max_pooled_(max_pooled) {}

  JFrame Acquire() {
    if (pool_.empty()) return JFrame{};
    JFrame jf = std::move(pool_.back());
    pool_.pop_back();
    jf.Reset();
    return jf;
  }

  void Recycle(JFrame&& jf) {
    if (pool_.size() >= max_pooled_) return;  // cap steady-state footprint
    pool_.push_back(std::move(jf));
    ++recycled_total_;
  }

  std::size_t pooled() const { return pool_.size(); }
  std::uint64_t recycled_total() const { return recycled_total_; }

 private:
  std::size_t max_pooled_;
  std::vector<JFrame> pool_;
  std::uint64_t recycled_total_ = 0;
};

}  // namespace jig
