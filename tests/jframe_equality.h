// Full-field equality for jframe streams and unifier stats, shared by the
// parallel-determinism tests (pipeline_test.cc) and the live-vs-batch
// equivalence suite (live_ingest_test.cc).  Keep these comparators in sync
// with JFrame / FrameInstance / UnifyStats: a field missing here silently
// drops out of every byte-equality pin.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "jigsaw/jframe.h"
#include "jigsaw/spill.h"
#include "jigsaw/unifier.h"

namespace jig::testing {

// Full-field comparison of two jframe streams: timestamps, dispersion,
// payload identity (digest + serialized representative frame), and every
// per-radio instance.
inline void ExpectIdenticalStreams(const std::vector<JFrame>& a,
                                   const std::vector<JFrame>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("jframe " + std::to_string(i));
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].dispersion, b[i].dispersion);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].rate, b[i].rate);
    EXPECT_EQ(a[i].wire_len, b[i].wire_len);
    EXPECT_EQ(a[i].digest, b[i].digest);
    EXPECT_EQ(a[i].frame.Serialize(), b[i].frame.Serialize());
    ASSERT_EQ(a[i].instances.size(), b[i].instances.size());
    for (std::size_t k = 0; k < a[i].instances.size(); ++k) {
      const FrameInstance& x = a[i].instances[k];
      const FrameInstance& y = b[i].instances[k];
      EXPECT_EQ(x.radio, y.radio);
      EXPECT_EQ(x.local_timestamp, y.local_timestamp);
      EXPECT_EQ(x.universal_timestamp, y.universal_timestamp);
      EXPECT_EQ(x.rssi_dbm, y.rssi_dbm);
      EXPECT_EQ(x.outcome, y.outcome);
    }
  }
}

// FNV-1a-64 over the concatenated SerializeJFrame bytes of a stream.  The
// spill encoding is lossless, so a test can pin a whole stream against a
// committed number instead of against a second live run.
inline std::uint64_t StreamDigest(const std::vector<JFrame>& stream) {
  std::uint64_t h = 14695981039346656037ull;
  Bytes bytes;
  for (const JFrame& jf : stream) {
    bytes.clear();
    SerializeJFrame(jf, bytes);
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

inline void ExpectEqualStats(const UnifyStats& a, const UnifyStats& b) {
  EXPECT_EQ(a.events_in, b.events_in);
  EXPECT_EQ(a.valid_in, b.valid_in);
  EXPECT_EQ(a.fcs_error_in, b.fcs_error_in);
  EXPECT_EQ(a.phy_error_in, b.phy_error_in);
  EXPECT_EQ(a.events_unified, b.events_unified);
  EXPECT_EQ(a.jframes, b.jframes);
  EXPECT_EQ(a.error_instances_attached, b.error_instances_attached);
  EXPECT_EQ(a.error_events_dropped, b.error_events_dropped);
  EXPECT_EQ(a.resyncs, b.resyncs);
}

}  // namespace jig::testing
