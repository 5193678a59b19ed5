// Tests of the benchmark's own machinery: the read probe must not change
// what the monitor writes, and the lag, stall, percentile and fingerprint
// arithmetic must give known answers.
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("perfbench_test_" + tag + "_" + std::to_string(getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ReadProbe, MonitorThroughWrapperPersistsByteIdenticalLog) {
  TempDir dir("probe");
  SimulateCapture(/*seed=*/5, /*capture_s=*/3, dir.path() / "cap");
  const Reference ref =
      ComputeReference(dir.path() / "cap", jig::Seconds(3));
  ASSERT_GT(ref.hashes.size(), 100u);

  ReadProbe probe;
  std::vector<fs::path> states;
  for (ReadProbe* p : {static_cast<ReadProbe*>(nullptr), &probe}) {
    const fs::path state =
        dir.path() / (p == nullptr ? "plain" : "probed");
    DriveOptions opt;
    opt.probe = p;
    const MonitorRun run = DriveMonitor(
        MonitorConfig(dir.path() / "cap", state, 1, /*analysis=*/true,
                      ref.radios),
        opt);
    ASSERT_EQ(run.error, "");
    EXPECT_EQ(CheckPrefix(HashOutputLog(state), ref.hashes,
                          ref.hashes.size()),
              "");
    states.push_back(state);
  }
  const ReadTotals totals = probe.Totals();
  EXPECT_GE(totals.records, ref.records);  // every record read at least once
  EXPECT_GT(totals.read_ns, 0u);

  std::vector<fs::path> segments;
  for (const auto& e : fs::directory_iterator(states[0] / "out")) {
    segments.push_back(e.path().filename());
  }
  ASSERT_FALSE(segments.empty());
  for (const fs::path& name : segments) {
    EXPECT_EQ(Slurp(states[0] / "out" / name), Slurp(states[1] / "out" / name))
        << name;
  }
  EXPECT_EQ(std::distance(fs::directory_iterator(states[1] / "out"),
                          fs::directory_iterator()),
            static_cast<std::ptrdiff_t>(segments.size()));
}

jig::JFrame WithInstances(
    std::vector<std::pair<jig::RadioId, jig::LocalMicros>> heard) {
  jig::JFrame jf;
  for (const auto& [radio, ts] : heard) {
    jig::FrameInstance inst;
    inst.radio = radio;
    inst.local_timestamp = ts;
    jf.instances.push_back(inst);
  }
  return jf;
}

TEST(Lag, KnownAnswerOnSyntheticSchedule) {
  // Capture time = ntp zero + local timestamp; chunks of 100 us starting
  // at capture time 1000, one every 10 ms.
  ChunkSchedule s;
  s.origin_us = 1000;
  s.span_us = 100;
  s.period_s = 0.010;
  const std::vector<std::int64_t> ntp_zero = {0, 500};
  EXPECT_EQ(s.ChunkOf(0, 1000), 1);
  EXPECT_EQ(s.ChunkOf(0, 1099), 1);
  EXPECT_EQ(s.ChunkOf(0, 1100), 2);
  EXPECT_EQ(s.ChunkOf(500, 650), 2);
  EXPECT_EQ(s.ChunkOf(0, 990), 1);  // NTP jitter before the origin

  const std::vector<jig::JFrame> jfs = {
      // Latest instance is radio 1's (capture 1150, chunk 2, due 20 ms).
      WithInstances({{0, 1050}, {1, 650}}),
      // Chunk 4, due 40 ms.
      WithInstances({{0, 1399}}),
      // Never made durable: no sample.
      WithInstances({{0, 1000}}),
  };
  const std::vector<PollSample> polls = {
      {0.015, 0}, {0.025, 1}, {0.050, 2}};
  const std::vector<double> durable = DurableTimes(polls, jfs.size());
  EXPECT_DOUBLE_EQ(durable[0], 0.025);
  EXPECT_DOUBLE_EQ(durable[1], 0.050);
  EXPECT_DOUBLE_EQ(durable[2], -1.0);

  const std::vector<double> lag = LagSamplesMs(jfs, polls, s, ntp_zero);
  ASSERT_EQ(lag.size(), 2u);
  EXPECT_NEAR(lag[0], 5.0, 1e-9);
  EXPECT_NEAR(lag[1], 10.0, 1e-9);
}

TEST(Stall, LongestIntervalFromPublicationToOutputGrowth) {
  const std::vector<double> published = {0.010, 0.020, 0.030, 0.060};
  const std::vector<PollSample> polls = {
      {0.005, 0}, {0.015, 0}, {0.025, 0}, {0.035, 5}, {0.045, 5}};
  // Opens at 0.010, closes at 0.035; the publication at 0.060 stays open
  // until the end (0.070).
  EXPECT_NEAR(LongestOutputStallS(published, polls, 0.070), 0.025, 1e-12);
  EXPECT_NEAR(LongestOutputStallS(published, polls, 0.100), 0.040, 1e-12);
  EXPECT_DOUBLE_EQ(LongestOutputStallS({}, polls, 1.0), 0.0);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  ASSERT_TRUE(Percentile(v, 99).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(v, 99), 990.0);  // 10 samples above it
  v.pop_back();
  EXPECT_FALSE(Percentile(v, 99).has_value());  // only 9 above

  std::vector<double> small;
  for (int i = 20; i >= 1; --i) small.push_back(i);  // unsorted input
  ASSERT_TRUE(Percentile(small, 50).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(small, 50), 10.0);
  small.pop_back();
  EXPECT_FALSE(Percentile(small, 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(Reference, SameSeedSameFingerprint) {
  TempDir dir("fingerprint");
  std::vector<std::uint64_t> prints;
  for (const auto& [seed, name] :
       std::vector<std::pair<int, std::string>>{{7, "a"}, {7, "b"}, {8, "c"}}) {
    SimulateCapture(static_cast<std::uint64_t>(seed), 2, dir.path() / name);
    const Reference ref = ComputeReference(dir.path() / name, jig::Seconds(2));
    ASSERT_FALSE(ref.hashes.empty());
    prints.push_back(StreamFingerprint(ref.hashes));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_NE(prints[0], prints[2]);
}

TEST(Reference, SavedReferenceRoundTrips) {
  TempDir dir("roundtrip");
  Reference ref;
  ref.records = 12345;
  ref.capture_us = 60'000'000;
  ref.radios = 156;
  ref.hashes = {1, 2, 0xFFFFFFFFFFFFFFFFull};
  SaveReference(dir.path() / "ref.bin", ref);
  const Reference back = LoadReference(dir.path() / "ref.bin");
  EXPECT_EQ(back.records, ref.records);
  EXPECT_EQ(back.capture_us, ref.capture_us);
  EXPECT_EQ(back.radios, ref.radios);
  EXPECT_EQ(back.hashes, ref.hashes);
}

}  // namespace
}  // namespace perfbench
