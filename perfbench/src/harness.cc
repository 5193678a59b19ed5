#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"

namespace perfbench {

// ------------------------------------------------------------------ clocks

namespace {

double ClockS(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double NowS() { return ClockS(CLOCK_MONOTONIC); }
double ProcessCpuS() { return ClockS(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuS() { return ClockS(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- scenario

jig::ScenarioConfig BenchScenario(std::uint64_t seed, int capture_s) {
  jig::ScenarioConfig config;
  config.seed = seed;
  config.duration = jig::Seconds(capture_s);
  config.clients = 60;
  config.workload.web_per_min = 12.0;
  config.workload.scp_per_min = 0.6;
  return config;
}

std::uint64_t SimulateCapture(std::uint64_t seed, int capture_s,
                              const fs::path& dir) {
  jig::Scenario scenario(BenchScenario(seed, capture_s));
  const jig::Scenario layout(BenchScenario(kLayoutSeed, capture_s));
  for (std::size_t i = 0; i < layout.client_info().size(); ++i) {
    scenario.RoamClient(i, layout.client_info()[i].position);
  }
  scenario.Run();
  jig::TraceSet traces = scenario.TakeTraces();
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    records += dynamic_cast<jig::MemoryTrace&>(traces.at(i)).size();
  }
  fs::create_directories(dir);
  traces.WriteDirectory(dir);
  return records;
}

// ------------------------------------------------------ reference stream

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t JFrameHash(const jig::JFrame& jf, jig::Bytes& scratch) {
  scratch.clear();
  jig::SerializeJFrame(jf, scratch);
  return Fnv1a(scratch.data(), scratch.size());
}

std::vector<std::uint64_t> HashAll(const std::vector<jig::JFrame>& jfs) {
  std::vector<std::uint64_t> out;
  out.reserve(jfs.size());
  jig::Bytes scratch;
  for (const jig::JFrame& jf : jfs) out.push_back(JFrameHash(jf, scratch));
  return out;
}

std::uint64_t StreamFingerprint(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t x : hashes) {
    h = Fnv1a(reinterpret_cast<const std::uint8_t*>(&x), sizeof x, h);
  }
  return h;
}

Reference ComputeReference(const fs::path& capture_dir,
                           std::int64_t capture_us) {
  Reference ref;
  ref.capture_us = capture_us;
  jig::TraceSet traces = OpenCapture(capture_dir);
  ref.radios = traces.size();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ref.records += dynamic_cast<jig::FileTrace&>(traces.at(i))
                       .reader()
                       .TotalRecords();
  }
  jig::MergeConfig config;
  config.threads = 1;
  jig::Bytes scratch;
  jig::MergeTracesStreaming(traces, config, [&](jig::JFrame&& jf) {
    ref.hashes.push_back(JFrameHash(jf, scratch));
  });
  return ref;
}

void SaveReference(const fs::path& path, const Reference& ref) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t head[4] = {ref.records,
                                 static_cast<std::uint64_t>(ref.capture_us),
                                 ref.radios, ref.hashes.size()};
  out.write(reinterpret_cast<const char*>(head), sizeof head);
  out.write(reinterpret_cast<const char*>(ref.hashes.data()),
            static_cast<std::streamsize>(ref.hashes.size() *
                                         sizeof(std::uint64_t)));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

Reference LoadReference(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t head[4] = {};
  in.read(reinterpret_cast<char*>(head), sizeof head);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  Reference ref;
  ref.records = head[0];
  ref.capture_us = static_cast<std::int64_t>(head[1]);
  ref.radios = head[2];
  if (head[3] > (1ull << 32)) {
    throw std::runtime_error("implausible jframe count in " + path.string());
  }
  ref.hashes.resize(head[3]);
  in.read(reinterpret_cast<char*>(ref.hashes.data()),
          static_cast<std::streamsize>(head[3] * sizeof(std::uint64_t)));
  if (!in) throw std::runtime_error("short reference " + path.string());
  return ref;
}

namespace {

void ForEachLogged(const fs::path& state_dir,
                   const std::function<void(jig::JFrame&&)>& fn) {
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  for (const auto& entry : fs::directory_iterator(state_dir / "out")) {
    std::uint64_t seq = 0;
    if (std::sscanf(entry.path().filename().string().c_str(),
                    "out-%" SCNu64 ".jigs", &seq) == 1) {
      segments.emplace_back(seq, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  for (const auto& [seq, path] : segments) {
    jig::SpillSegmentReader reader(path, /*strict=*/false);
    while (auto jf = reader.Next()) fn(std::move(*jf));
  }
}

}  // namespace

std::vector<jig::JFrame> ReadOutputLog(const fs::path& state_dir) {
  std::vector<jig::JFrame> out;
  ForEachLogged(state_dir,
                [&out](jig::JFrame&& jf) { out.push_back(std::move(jf)); });
  return out;
}

std::vector<std::uint64_t> HashOutputLog(const fs::path& state_dir) {
  std::vector<std::uint64_t> out;
  jig::Bytes scratch;
  ForEachLogged(state_dir, [&](jig::JFrame&& jf) {
    out.push_back(JFrameHash(jf, scratch));
  });
  return out;
}

std::string CheckPrefix(const std::vector<std::uint64_t>& got,
                        const std::vector<std::uint64_t>& ref,
                        std::size_t n) {
  if (n > ref.size()) {
    return "expected " + std::to_string(n) + " jframes but the reference has " +
           std::to_string(ref.size());
  }
  if (got.size() != n) {
    return "log holds " + std::to_string(got.size()) + " jframes, expected " +
           std::to_string(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != ref[i]) {
      return "jframe " + std::to_string(i) + " differs from the reference";
    }
  }
  return "";
}

// --------------------------------------------------------------- statistics

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ------------------------------------------------- live schedule and lag

std::int64_t ChunkSchedule::ChunkOf(std::int64_t ntp_zero_us,
                                    std::int64_t local_us) const {
  const std::int64_t offset = ntp_zero_us + local_us - origin_us;
  // Floor division: a record a hair before the origin (NTP jitter) still
  // lands in the first chunk rather than chunk 0.
  const std::int64_t q =
      offset >= 0 ? offset / span_us : -((-offset + span_us - 1) / span_us);
  return std::max<std::int64_t>(1, q + 1);
}

std::vector<double> DurableTimes(const std::vector<PollSample>& polls,
                                 std::size_t n) {
  std::vector<double> out(n, -1.0);
  std::size_t next = 0;
  for (const PollSample& p : polls) {
    while (next < n && next < p.persisted) out[next++] = p.end_s;
  }
  return out;
}

std::vector<double> LagSamplesMs(
    const std::vector<jig::JFrame>& jfs, const std::vector<PollSample>& polls,
    const ChunkSchedule& schedule,
    const std::vector<std::int64_t>& ntp_zero_by_radio) {
  const std::vector<double> durable = DurableTimes(polls, jfs.size());
  std::vector<double> out;
  out.reserve(jfs.size());
  for (std::size_t i = 0; i < jfs.size(); ++i) {
    if (durable[i] < 0.0) continue;
    std::int64_t last_chunk = 1;
    for (const jig::FrameInstance& inst : jfs[i].instances) {
      last_chunk = std::max(
          last_chunk, schedule.ChunkOf(ntp_zero_by_radio.at(inst.radio),
                                       inst.local_timestamp));
    }
    out.push_back((durable[i] - schedule.DueS(last_chunk)) * 1e3);
  }
  return out;
}

double LongestOutputStallS(const std::vector<double>& publish_s,
                           const std::vector<PollSample>& polls,
                           double end_s) {
  double longest = 0.0;
  double open_s = 0.0;
  bool open = false;
  std::size_t pub = 0;
  std::uint64_t persisted = 0;
  for (const PollSample& p : polls) {
    // Publications that landed before this poll returned could have been
    // made durable by it.
    for (; pub < publish_s.size() && publish_s[pub] <= p.end_s; ++pub) {
      if (!open) open_s = publish_s[pub];
      open = true;
    }
    if (p.persisted > persisted) {
      if (open) longest = std::max(longest, p.end_s - open_s);
      open = false;
      persisted = p.persisted;
    }
  }
  if (!open && pub < publish_s.size()) {
    open_s = publish_s[pub];
    open = true;
  }
  if (open) longest = std::max(longest, end_s - open_s);
  return longest;
}

// --------------------------------------------------------------- read probe

namespace {

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

class TimedStream final : public jig::RecordStream {
 public:
  TimedStream(std::unique_ptr<jig::RecordStream> inner, ReadProbe::Cell& cell)
      : inner_(std::move(inner)), cell_(cell) {}

  const jig::TraceHeader& header() const override { return inner_->header(); }
  std::optional<jig::CaptureRecord> Next() override {
    const auto t0 = std::chrono::steady_clock::now();
    auto rec = inner_->Next();
    Account(t0, rec.has_value());
    return rec;
  }
  const jig::CaptureRecord* NextRef() override {
    const auto t0 = std::chrono::steady_clock::now();
    const jig::CaptureRecord* rec = inner_->NextRef();
    Account(t0, rec != nullptr);
    return rec;
  }
  void Rewind() override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->Rewind();
    cell_.read_ns.fetch_add(ElapsedNs(t0), std::memory_order_relaxed);
    cell_.rewinds.fetch_add(1, std::memory_order_relaxed);
  }
  bool Finalized() const override { return inner_->Finalized(); }

 private:
  void Account(std::chrono::steady_clock::time_point t0, bool got) {
    cell_.read_ns.fetch_add(ElapsedNs(t0), std::memory_order_relaxed);
    if (got) cell_.records.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<jig::RecordStream> inner_;
  ReadProbe::Cell& cell_;
};

}  // namespace

std::unique_ptr<jig::RecordStream> ReadProbe::Wrap(
    std::unique_ptr<jig::RecordStream> inner) {
  cells_.emplace_back();
  return std::make_unique<TimedStream>(std::move(inner), cells_.back());
}

jig::DeploymentMonitor::StreamWrapper ReadProbe::Wrapper() {
  return [this](std::unique_ptr<jig::RecordStream> inner, std::uint32_t) {
    return Wrap(std::move(inner));
  };
}

ReadTotals ReadProbe::Totals() const {
  ReadTotals t;
  for (const Cell& c : cells_) {
    t.records += c.records.load(std::memory_order_relaxed);
    t.read_ns += c.read_ns.load(std::memory_order_relaxed);
    t.rewinds += c.rewinds.load(std::memory_order_relaxed);
  }
  return t;
}

jig::TraceSet OpenCapture(const fs::path& dir, ReadProbe* probe) {
  std::vector<std::pair<std::uint32_t, std::unique_ptr<jig::RecordStream>>>
      opened;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".jigt") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    auto s = std::make_unique<jig::FileTrace>(path);
    const std::uint32_t radio = s->header().radio;
    opened.emplace_back(radio, std::move(s));
  }
  std::stable_sort(opened.begin(), opened.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  jig::TraceSet set;
  for (auto& [radio, s] : opened) {
    set.Add(probe != nullptr ? probe->Wrap(std::move(s)) : std::move(s));
  }
  return set;
}

// ------------------------------------------------------------ monitor loop

jig::DeploymentConfig MonitorConfig(const fs::path& trace_dir,
                                    const fs::path& state_dir,
                                    unsigned threads, bool analysis,
                                    std::size_t expected_traces) {
  jig::DeploymentConfig cfg;
  cfg.name = "bench";
  cfg.trace_dir = trace_dir;
  cfg.state_dir = state_dir;
  cfg.merge.threads = threads;
  cfg.analysis = analysis;
  cfg.expected_traces = expected_traces;
  return cfg;
}

double MonitorRun::BusyS() const {
  double busy = opened_s - begin_s;
  for (const PollSpan& p : polls) busy += p.end_s - p.start_s;
  return busy;
}

std::size_t MonitorRun::GrowingPolls() const {
  std::size_t n = 0;
  std::uint64_t before = initial;
  for (const PollSpan& p : polls) {
    if (p.persisted > before) ++n;
    before = p.persisted;
  }
  return n;
}

MonitorRun DriveMonitor(const jig::DeploymentConfig& cfg,
                        const DriveOptions& opt) {
  using State = jig::DeploymentMonitor::State;
  MonitorRun run;
  run.begin_s = NowS();
  try {
    jig::DeploymentMonitor monitor(
        cfg, opt.probe != nullptr ? opt.probe->Wrapper() : nullptr);
    run.opened_s = NowS();
    const double deadline = run.opened_s + opt.timeout_s;
    run.initial = monitor.jframes_persisted();
    std::uint64_t before = run.initial;
    for (;;) {
      PollSpan span;
      span.start_s = NowS();
      const State state = monitor.PollOnce();
      span.end_s = NowS();
      span.persisted = monitor.jframes_persisted();
      span.recovered = monitor.recovered_jframes();
      if (opt.probe != nullptr) span.reads = opt.probe->Totals();
      run.polls.push_back(span);
      const bool grew = span.persisted > before;
      before = span.persisted;
      bool stop = false;
      switch (opt.stop) {
        case StopWhen::kDone:
          stop = state == State::kDone;
          break;
        case StopWhen::kCaughtUp:
          stop = state != State::kDiscovering &&
                 monitor.recovered_jframes() >= opt.catch_up;
          break;
      }
      if (stop) break;
      if (state == State::kDone) {
        run.error = "monitor finished before its stop condition";
        break;
      }
      if (span.end_s > deadline) {
        run.error = "timed out after " + std::to_string(opt.timeout_s) + " s";
        break;
      }
      if (opt.sleep_when_idle && !grew) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    run.end_s = NowS();
    run.persisted = monitor.jframes_persisted();
    run.recovered = monitor.recovered_jframes();
  } catch (const std::exception& e) {
    run.error = std::string("monitor failed: ") + e.what();
    if (run.end_s == 0.0) run.end_s = NowS();
  }
  return run;
}

}  // namespace perfbench
