// Shared pieces of the end-to-end benchmark: clocks, the benchmark
// scenario, the reference fingerprint and output-log verification, the
// percentile / lag / stall arithmetic, the outside-in read probe, and the
// polling loop every workload runs its monitor with.
//
// Everything here sits OUTSIDE the library under test: it only calls the
// public headers (DeploymentMonitor, MergeTracesStreaming, the trace and
// spill readers), so the benchmark measures the production door and adds
// no tracing inside src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "jigsaw/service.h"
#include "sim/scenario.h"

namespace perfbench {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ clocks

double NowS();           // steady clock, seconds
double ProcessCpuS();    // CPU time of every thread of this process
double ThreadCpuS();     // CPU time of the calling thread
double PeakRssMiB();     // peak resident set of this process

// ---------------------------------------------------------------- scenario

// The simulated 39-pod building (156 radios) with 60 clients and office
// traffic busier than the library default (web 12/min, scp 0.6/min per
// active client), so a capture second carries ~15k records.
jig::ScenarioConfig BenchScenario(std::uint64_t seed, int capture_s);

// Where every simulated day seats its clients: the desks of layout seed 1.
inline constexpr std::uint64_t kLayoutSeed = 1;

// Simulates `capture_s` seconds and writes one r<id>.jigt per radio.  The
// desks are fixed (kLayoutSeed), so the seed varies the day's traffic,
// clocks and noise but not which radios sit near which clients.  Returns
// the total record count.
std::uint64_t SimulateCapture(std::uint64_t seed, int capture_s,
                              const fs::path& dir);

// ------------------------------------------------------ reference stream

// 64-bit FNV-1a of a jframe's SerializeJFrame bytes (the lossless spill
// encoding, so two jframes hash equal iff they serialize equal).
std::uint64_t JFrameHash(const jig::JFrame& jf, jig::Bytes& scratch);
std::vector<std::uint64_t> HashAll(const std::vector<jig::JFrame>& jfs);
// Order-sensitive digest of a hash sequence: the stream's fingerprint.
std::uint64_t StreamFingerprint(const std::vector<std::uint64_t>& hashes);

struct Reference {
  std::uint64_t records = 0;     // capture records over every radio
  std::int64_t capture_us = 0;   // simulated capture length
  std::uint64_t radios = 0;
  std::vector<std::uint64_t> hashes;  // one per jframe, stream order
};

// The reference for a finished capture: MergeTracesStreaming at
// threads = 1 over the .jigt files, each jframe hashed.
Reference ComputeReference(const fs::path& capture_dir,
                           std::int64_t capture_us);
void SaveReference(const fs::path& path, const Reference& ref);
Reference LoadReference(const fs::path& path);

// Every jframe in a monitor's output log (<state_dir>/out/out-*.jigs, in
// sequence order).  Segments are read in tail mode, so a log left open by
// Shutdown() reads up to its last published block.
std::vector<jig::JFrame> ReadOutputLog(const fs::path& state_dir);
// The same stream hashed one jframe at a time, holding no jframe longer
// than its block (keeps verification out of a timed process's peak RSS).
std::vector<std::uint64_t> HashOutputLog(const fs::path& state_dir);

// "" when `got` holds exactly `n` hashes equal to the first `n` of `ref`;
// otherwise what differs.
std::string CheckPrefix(const std::vector<std::uint64_t>& got,
                        const std::vector<std::uint64_t>& ref,
                        std::size_t n);

// --------------------------------------------------------------- statistics

// A percentile is reported only when at least this many samples rank
// above it; a higher percentile would rest on fewer than ten samples.
inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank percentile (p in (0, 100)): the sample at sorted index
// ceil(p/100 * n) - 1, or nullopt when fewer than kMinBeyond samples rank
// after it.
std::optional<double> Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// ------------------------------------------------- live schedule and lag

// The open-loop writer's schedule.  Capture time is a radio's NTP estimate
// of its local clock's zero plus the record's local timestamp, so every
// radio's file grows in lockstep with the others.  Chunk k (from 1) holds
// the records captured in [origin + (k-1)·span, origin + k·span) and is due
// k·period seconds after the schedule starts.
struct ChunkSchedule {
  std::int64_t origin_us = 0;
  std::int64_t span_us = 1;
  double period_s = 0.0;

  std::int64_t ChunkOf(std::int64_t ntp_zero_us, std::int64_t local_us) const;
  double DueS(std::int64_t chunk) const {
    return static_cast<double>(chunk) * period_s;
  }
};

// One PollOnce as seen from outside: when it returned (seconds on the
// caller's clock) and the monitor's durable jframe count after it.
struct PollSample {
  double end_s = 0.0;
  std::uint64_t persisted = 0;
};

// For each of the first `n` jframes, the end of the first poll after which
// it was durable; -1 for a jframe no poll made durable.
std::vector<double> DurableTimes(const std::vector<PollSample>& polls,
                                 std::size_t n);

// Per jframe: the time the poll that made it durable returned, minus the
// due time of the chunk that carried its latest instance (instances are
// identified by (radio, local timestamp)).  `ntp_zero_by_radio` maps a
// radio id to its header's ntp_utc_of_local_zero_us.  Poll times are on
// the schedule's clock (0 = schedule start).
std::vector<double> LagSamplesMs(
    const std::vector<jig::JFrame>& jfs, const std::vector<PollSample>& polls,
    const ChunkSchedule& schedule,
    const std::vector<std::int64_t>& ntp_zero_by_radio);

// Longest wall interval in which the writer had published data that no
// later growth of the durable count had yet followed: it opens at a
// publication (`publish_s`, ascending) with no stall open, and closes at
// the first poll that grew the durable count, or at `end_s`.
double LongestOutputStallS(const std::vector<double>& publish_s,
                           const std::vector<PollSample>& polls,
                           double end_s);

// --------------------------------------------------------------- read probe

struct ReadTotals {
  std::uint64_t records = 0;  // records handed out by Next/NextRef
  std::uint64_t read_ns = 0;  // wall time inside Next/NextRef/Rewind
  std::uint64_t rewinds = 0;
  double read_s() const { return static_cast<double>(read_ns) * 1e-9; }
};

// Wraps record streams in a timing pass-through (DeploymentMonitor's
// StreamWrapper seam) and sums what every wrapped stream reported.  Each
// stream counts into its own cell; shard workers read different streams
// concurrently, so the cells are relaxed atomics.
class ReadProbe {
 public:
  ReadProbe() = default;
  ReadProbe(const ReadProbe&) = delete;
  ReadProbe& operator=(const ReadProbe&) = delete;

  std::unique_ptr<jig::RecordStream> Wrap(
      std::unique_ptr<jig::RecordStream> inner);
  // Holds `this`: the probe must outlive every monitor it is handed to.
  jig::DeploymentMonitor::StreamWrapper Wrapper();
  ReadTotals Totals() const;

  struct Cell {
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> read_ns{0};
    std::atomic<std::uint64_t> rewinds{0};
  };

 private:
  std::deque<Cell> cells_;  // deque: cell addresses stay stable
};

// Opens every *.jigt under `dir` (a finished capture) as FileTrace, in
// radio order (the monitor's order), each wrapped by `probe` when given.
jig::TraceSet OpenCapture(const fs::path& dir, ReadProbe* probe = nullptr);

// ------------------------------------------------------------ monitor loop

jig::DeploymentConfig MonitorConfig(const fs::path& trace_dir,
                                    const fs::path& state_dir,
                                    unsigned threads, bool analysis,
                                    std::size_t expected_traces);

struct PollSpan {
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t persisted = 0;   // durable jframes after the poll
  std::uint64_t recovered = 0;   // replayed-and-suppressed after the poll
  ReadTotals reads;              // probe totals after the poll (traced)
};

struct MonitorRun {
  double begin_s = 0.0;     // constructor called
  double opened_s = 0.0;    // constructor returned
  double end_s = 0.0;       // stop condition met
  std::vector<PollSpan> polls;
  std::uint64_t initial = 0;  // durable before the first poll (recovery)
  std::uint64_t persisted = 0;
  std::uint64_t recovered = 0;
  std::string error;        // non-empty: failed, or timed out

  // Wall time the monitor's own code ran on the polling thread.
  double BusyS() const;
  // Polls that made something durable.
  std::size_t GrowingPolls() const;
};

enum class StopWhen {
  kDone,       // state kDone (every trace finalized and merged)
  kCaughtUp,   // past discovery, and recovered_jframes() reached `catch_up`
};

struct DriveOptions {
  StopWhen stop = StopWhen::kDone;
  std::uint64_t catch_up = 0;
  double timeout_s = 120.0;
  // Sleep 1 ms after a poll that made nothing durable, instead of
  // spinning (the live follower's idle back-off).
  bool sleep_when_idle = false;
  ReadProbe* probe = nullptr;
};

// Constructs a monitor over `cfg`, polls it until `opt.stop`, and tears
// it down.  Never throws for a monitor failure: it lands in `error`.
MonitorRun DriveMonitor(const jig::DeploymentConfig& cfg,
                        const DriveOptions& opt);

}  // namespace perfbench
