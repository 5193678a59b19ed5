// Distributed-merge suite: the socket trace transport and the two-level
// (wing -> root) topology.
//
// Two contracts are pinned here.  First, SocketTrace must honor the
// RecordStream tri-state semantics TailFileTrace established — no-data-yet
// vs latched finalize vs corruption — with the socket-specific fourth
// state (peer disconnect before the marker) surfacing as truncation.
// Second, the tentpole determinism pin: a 2-wing distributed merge must
// emit a jframe stream byte-identical to the single-node merge of the same
// trace files, across threads in {1, 2, auto} and with spill engaged —
// the distributed topology may change WHERE records travel, never WHAT
// the global unifier says about them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "jframe_equality.h"
#include "jigsaw/distributed.h"
#include "jigsaw/pipeline.h"
#include "obs/metrics.h"
#include "synthetic.h"
#include "trace/net.h"
#include "trace/socket_trace.h"
#include "trace/trace_file.h"
#include "trace/trace_set.h"
#include "util/compression.h"

namespace jig {
namespace {

namespace fs = std::filesystem;
using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;

CaptureRecord MakeRecord(LocalMicros ts) {
  CaptureRecord rec;
  rec.timestamp = ts;
  rec.rate = PhyRate::kB2;
  rec.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  rec.orig_len = 14;
  return rec;
}

void SendU32(net::Socket& sock, std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  net::SendAll(sock, b, sizeof b);
}

// Hand-sends the hello + .jigt prefix + header — the raw-byte sender the
// malformed-stream tests build on (SocketTraceWriter cannot emit broken
// streams, by design).
void SendHelloAndHeader(net::Socket& sock, const TraceHeader& header,
                        std::uint32_t source_id = 0) {
  net::SendAll(sock, kSocketHelloMagic, 4);
  SendU32(sock, kSocketHelloVersion);
  SendU32(sock, source_id);
  net::SendAll(sock, kTraceDataMagic, 4);
  SendU32(sock, kTraceVersion);
  Bytes hdr;
  SerializeHeader(header, hdr);
  SendU32(sock, static_cast<std::uint32_t>(hdr.size()));
  net::SendAll(sock, hdr.data(), hdr.size());
}

// One loopback connection: `client` is the sender side, `server` the
// accepted receiver side.
struct Loopback {
  net::Listener listener{"127.0.0.1", 0};
  net::Socket client;
  net::Socket server;

  Loopback() {
    client = net::ConnectTo("127.0.0.1", listener.port());
    server = listener.Accept(/*timeout_ms=*/5000);
  }
};

// ---------------------------------------------------------------------------
// SocketTrace semantics.

TEST(SocketTraceTest, NoDataYetThenSyncThenFinalizeLatches) {
  Loopback lo;
  TraceHeader header;
  header.radio = 7;
  SocketTraceWriter writer(std::move(lo.client), header, /*source_id=*/3,
                           /*records_per_block=*/2);
  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_EQ(trace->header().radio, 7);
  EXPECT_EQ(trace->source_id(), 3u);

  // Nothing sent yet: no data, expressly NOT finalized, NOT an error.
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());

  // A full block (2 records) publishes by itself.
  writer.Append(MakeRecord(1'000));
  writer.Append(MakeRecord(2'000));
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);

  // A buffered partial block is invisible until Sync cuts it.
  writer.Append(MakeRecord(3'000));
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());
  writer.Sync();
  const auto got = trace->Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, 3'000);
  EXPECT_EQ(got->bytes, MakeRecord(3'000).bytes);

  // The finalize marker latches end-of-capture.
  writer.Finish();
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());

  // Rewind replays the retained records (the late-bootstrap path) and the
  // latch holds across it.
  trace->Rewind();
  EXPECT_TRUE(trace->Finalized());
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);
  EXPECT_EQ(trace->Next()->timestamp, 3'000);
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());
}

TEST(SocketTraceTest, PeerDisconnectBeforeMarkerIsTruncationAfterDrain) {
  Loopback lo;
  TraceHeader header;
  header.radio = 4;
  SendHelloAndHeader(lo.client, header);
  // One complete block, then the peer vanishes without the marker.
  Bytes serialized;
  SerializeRecord(MakeRecord(500), 0, serialized);
  const Bytes packed = LzCompress(serialized);
  SendU32(lo.client, static_cast<std::uint32_t>(packed.size()));
  net::SendAll(lo.client, packed.data(), packed.size());
  lo.client.Close();

  auto trace = SocketTrace::Open(std::move(lo.server));
  // Everything received still reads out...
  const auto got = trace->Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, 500);
  // ... and only then does the cut-off surface, as truncation (the capture
  // may be incomplete), never as a clean end and never as corruption.
  EXPECT_FALSE(trace->Finalized());
  EXPECT_THROW(trace->NextRef(), TraceTruncatedError);
}

TEST(SocketTraceTest, BadHelloMagicIsCorruption) {
  Loopback lo;
  const char garbage[16] = "NOTAJIGSAWHELLO";
  net::SendAll(lo.client, garbage, sizeof garbage);
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceCorruptError);
}

TEST(SocketTraceTest, WrongHelloVersionIsCorruption) {
  Loopback lo;
  net::SendAll(lo.client, kSocketHelloMagic, 4);
  SendU32(lo.client, kSocketHelloVersion + 1);
  SendU32(lo.client, 0);
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceCorruptError);
}

TEST(SocketTraceTest, PeerGoneBeforeHeaderIsTruncation) {
  Loopback lo;
  net::SendAll(lo.client, kSocketHelloMagic, 4);  // hello cut short
  lo.client.Close();
  EXPECT_THROW(SocketTrace::Open(std::move(lo.server)), TraceTruncatedError);
}

TEST(SocketTraceTest, GarbageBlockLengthIsCorruptionNotRetry) {
  Loopback lo;
  TraceHeader header;
  header.radio = 9;
  SendHelloAndHeader(lo.client, header);
  SendU32(lo.client, 0x7FFFFFFF);  // absurd block length

  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_THROW(trace->NextRef(), TraceCorruptError);
}

TEST(SocketTraceTest, MalformedBlockBodyIsCorruption) {
  Loopback lo;
  TraceHeader header;
  header.radio = 2;
  SendHelloAndHeader(lo.client, header);
  // A complete-by-length block whose body is not valid LZ data.
  const std::uint8_t junk[32] = {0xFF, 0xEE, 0xDD, 0xCC};
  SendU32(lo.client, sizeof junk);
  net::SendAll(lo.client, junk, sizeof junk);

  auto trace = SocketTrace::Open(std::move(lo.server));
  EXPECT_THROW(trace->NextRef(), TraceCorruptError);
}

// ---------------------------------------------------------------------------
// The tentpole pin: 2 wings x 3 radios, byte-identical to single-node.

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("distributed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

class DistributedVsSingleNode
    : public DistributedTest,
      public ::testing::WithParamInterface<std::tuple<unsigned, bool>> {};

TEST_P(DistributedVsSingleNode, ByteIdenticalAcrossThreadsAndSpill) {
  const unsigned threads = std::get<0>(GetParam());
  const bool spill = std::get<1>(GetParam());

  // Serialize the network to files FIRST: the .jigt encoding quantizes
  // rssi, so both sides must merge the same on-disk records (comparing a
  // socket-fed merge against raw in-memory floats would diff on
  // quantization, not on topology).
  TraceSet mem = MultiChannelNetwork(88).Build();
  const std::size_t n = mem.size();
  ASSERT_EQ(n, 6u);
  const fs::path all = dir_ / "all";
  const auto paths = mem.WriteDirectory(all);

  // The single-node reference: the default (threads=1) batch merge.
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = MergeTraces(full, MergeConfig{});
  ASSERT_GT(batch.jframes.size(), 100u);

  // Split radios {0,1,2} | {3,4,5} across two wings.  Radios sharing a
  // channel land on different wings, so cross-wing frame copies exist and
  // the root's boundary reconciliation has real work to do.
  const fs::path w1 = dir_ / "w1";
  const fs::path w2 = dir_ / "w2";
  fs::create_directories(w1);
  fs::create_directories(w2);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    fs::copy_file(paths[i], (i < n / 2 ? w1 : w2) / paths[i].filename());
  }

  RootConfig rc;
  rc.n_streams = n;
  rc.merge.threads = threads;
  if (spill) {
    rc.merge.spill_dir = dir_ / "spill_root";
    rc.merge.spill_threshold = 16;  // force spill engagement early
  }
  RootSession root(rc);
  const std::uint16_t port = root.port();

  const auto run_wing = [&](const fs::path& wing_dir, std::uint32_t id) {
    TraceSet traces = TraceSet::OpenDirectory(wing_dir);
    WingConfig wc;
    wc.wing_id = id;
    wc.root_port = port;
    wc.merge.threads = threads;
    if (spill) {
      wc.merge.spill_dir = dir_ / ("spill_wing" + std::to_string(id));
      wc.merge.spill_threshold = 16;
    }
    WingSession wing(traces, wc);
    wing.Run();
  };
  std::thread wing1(run_wing, w1, 1u);
  std::thread wing2(run_wing, w2, 2u);

  std::vector<JFrame> streamed;
  MergeStreamStats stats;
  try {
    stats = root.Run(
        [&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    wing1.join();
    wing2.join();
    throw;
  }
  wing1.join();
  wing2.join();

  // The distributed stream is the single-node stream, byte for byte.
  ExpectIdenticalStreams(streamed, batch.jframes);
  ExpectEqualStats(stats.stats, batch.stats);
  ASSERT_EQ(stats.bootstrap.synced.size(), batch.bootstrap.synced.size());
  for (std::size_t i = 0; i < batch.bootstrap.synced.size(); ++i) {
    EXPECT_EQ(stats.bootstrap.synced[i], batch.bootstrap.synced[i]);
    EXPECT_DOUBLE_EQ(stats.bootstrap.offset_us[i],
                     batch.bootstrap.offset_us[i]);
  }

  // The boundary reconciliation really fired: frames heard on both wings
  // collapsed into single jframes at the root.
  EXPECT_EQ(root.jframes(), batch.jframes.size());
  EXPECT_GT(root.boundary_jframes(), 0u);
  EXPECT_LT(root.boundary_jframes(), root.jframes());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBySpill, DistributedVsSingleNode,
    ::testing::Combine(::testing::Values(1u, 2u, 0u), ::testing::Bool()));

// ---------------------------------------------------------------------------
// Disconnect-then-reconnect (regression).
//
// Pre-fix, a wing that dropped and re-dialed with the same source id was
// accepted as a FRESH stream: the dead original eventually threw a
// phantom TraceTruncatedError into the merge (this test then failed on
// the root.Run throw), and the re-dial either consumed an accept slot as
// a duplicate radio or was never accepted at all.  Post-fix the re-dial
// adopts into the existing stream — the sender replays from record zero,
// already-received records are deduplicated, and the merged stream is
// byte-identical to the single-node run.

TEST_F(DistributedTest, RedialWithSameSourceResumesInsteadOfDuplicating) {
  TraceSet mem = MultiChannelNetwork(77, Seconds(2)).Build();
  const fs::path all = dir_ / "all";
  mem.WriteDirectory(all);

  // Reference: single-node batch merge of the same (quantized) files.
  TraceSet full = TraceSet::OpenDirectory(all);
  const MergeResult batch = MergeTraces(full, MergeConfig{});
  ASSERT_GT(batch.jframes.size(), 50u);

  // Re-read each radio's records for the senders.
  TraceSet files = TraceSet::OpenDirectory(all);
  const std::size_t n = files.size();
  std::vector<TraceHeader> headers;
  std::vector<std::vector<CaptureRecord>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    headers.push_back(files.at(i).header());
    while (auto rec = files.at(i).Next()) records[i].push_back(*rec);
    ASSERT_FALSE(records[i].empty());
  }

  const std::int64_t resumes_before = obs::MetricRegistry::Global()
      .Collect().Value("jig_socket_trace_resumes_total");

  RootConfig rc;
  rc.n_streams = n;
  RootSession root(rc);
  const std::uint16_t port = root.port();

  // Radio 0's sender: half the records on a connection that dies without
  // the finalize marker, then a re-dial (same source id, same radio)
  // that replays everything from record zero, as a restarted capture
  // daemon would — a socket cannot seek and the sender cannot know how
  // much of its first stream survived.
  std::thread dropper([&] {
    const std::size_t half = records[0].size() / 2;
    {
      net::Socket sock = net::ConnectTo("127.0.0.1", port);
      SendHelloAndHeader(sock, headers[0], /*source_id=*/1);
      Bytes body;
      LocalMicros prev = 0;
      for (std::size_t i = 0; i < half; ++i) {
        SerializeRecord(records[0][i], prev, body);
        prev = records[0][i].timestamp;
      }
      const Bytes packed = LzCompress(body);
      SendU32(sock, static_cast<std::uint32_t>(packed.size()));
      net::SendAll(sock, packed.data(), packed.size());
    }  // closed mid-stream: no marker
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port), headers[0],
                             /*source_id=*/1, /*records_per_block=*/32);
    for (const CaptureRecord& rec : records[0]) writer.Append(rec);
    writer.Finish();
  });
  std::vector<std::thread> senders;
  for (std::size_t i = 1; i < n; ++i) {
    senders.emplace_back([&, i] {
      SocketTraceWriter writer(net::ConnectTo("127.0.0.1", port),
                               headers[i], /*source_id=*/1,
                               /*records_per_block=*/64);
      for (const CaptureRecord& rec : records[i]) writer.Append(rec);
      writer.Finish();
    });
  }

  std::vector<JFrame> streamed;
  try {
    root.Run([&streamed](JFrame&& jf) { streamed.push_back(std::move(jf)); });
  } catch (...) {
    dropper.join();
    for (auto& t : senders) t.join();
    throw;
  }
  dropper.join();
  for (auto& t : senders) t.join();

  ExpectIdenticalStreams(streamed, batch.jframes);
  // The re-dial really was adopted, not re-accepted.
  EXPECT_GE(obs::MetricRegistry::Global().Collect().Value(
                "jig_socket_trace_resumes_total"),
            resumes_before + 1);
}

// The stream-level seam the root builds on, pinned without a merge: a
// resumable stream parks on disconnect (no-data-yet, NOT truncation),
// then OpenOrResume routes the matching re-dial back into it and the
// from-zero replay dedupes; a different identity stays a fresh stream.
TEST(SocketTraceTest, ResumableStreamParksAndDeduplicatesReplay) {
  Loopback lo;
  TraceHeader header;
  header.radio = 5;
  auto send_records = [](net::Socket& sock, int from, int to) {
    Bytes body;
    LocalMicros prev = 0;
    for (int i = from; i < to; ++i) {
      SerializeRecord(MakeRecord(1'000 * (i + 1)), prev, body);
      prev = 1'000 * (i + 1);
    }
    const Bytes packed = LzCompress(body);
    SendU32(sock, static_cast<std::uint32_t>(packed.size()));
    net::SendAll(sock, packed.data(), packed.size());
  };

  SendHelloAndHeader(lo.client, header, /*source_id=*/9);
  send_records(lo.client, 0, 3);
  lo.client.Close();

  auto trace = SocketTrace::Open(std::move(lo.server));
  trace->set_resumable(true);
  EXPECT_EQ(trace->Next()->timestamp, 1'000);
  EXPECT_EQ(trace->Next()->timestamp, 2'000);
  EXPECT_EQ(trace->Next()->timestamp, 3'000);
  // Disconnected before the marker: parked, not truncated.
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_FALSE(trace->Finalized());
  EXPECT_TRUE(trace->disconnected());

  // A re-dial with a DIFFERENT identity must not adopt.
  {
    Loopback other;
    TraceHeader other_header;
    other_header.radio = 6;  // wrong radio
    SendHelloAndHeader(other.client, other_header, /*source_id=*/9);
    std::vector<SocketTrace*> existing{trace.get()};
    auto fresh = SocketTrace::OpenOrResume(std::move(other.server), existing);
    EXPECT_NE(fresh, nullptr);
  }

  // The matching re-dial adopts and replays from zero; records 1..3 are
  // consumed silently, 4..5 surface exactly once, and the marker
  // finalizes the stream.
  {
    Loopback redial;
    SendHelloAndHeader(redial.client, header, /*source_id=*/9);
    send_records(redial.client, 0, 5);
    SendU32(redial.client, 0);  // finalize marker
    std::vector<SocketTrace*> existing{trace.get()};
    auto adopted = SocketTrace::OpenOrResume(std::move(redial.server),
                                             existing);
    EXPECT_EQ(adopted, nullptr);
  }
  EXPECT_EQ(trace->Next()->timestamp, 4'000);
  EXPECT_EQ(trace->Next()->timestamp, 5'000);
  EXPECT_EQ(trace->NextRef(), nullptr);
  EXPECT_TRUE(trace->Finalized());

  // Rewind (the late-bootstrap pass) replays the stitched stream whole.
  trace->Rewind();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(trace->Next()->timestamp, 1'000 * (i + 1));
  }
  EXPECT_EQ(trace->NextRef(), nullptr);
}

}  // namespace
}  // namespace jig
