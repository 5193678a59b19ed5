#include "layers.h"

#include <chrono>
#include <cstdio>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/bootstrap.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"
#include "obs/metrics.h"

namespace perfbench {

int SpanLog::Add(std::string name, double start_s, double end_s, int parent) {
  spans_.push_back({std::move(name), start_s, end_s, parent, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Attr(int id, std::string key, double value) {
  spans_.at(static_cast<std::size_t>(id)).attrs.emplace_back(std::move(key),
                                                            value);
}

void SpanLog::End(int id, double end_s) {
  spans_.at(static_cast<std::size_t>(id)).end_s = end_s;
}

std::string SpanLog::ToJson(double origin_s) const {
  std::string out = "[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n ";
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f",
                  i, s.parent, s.start_s - origin_s, s.end_s - origin_s);
    out += buf;
    out += ",\"name\":\"" + s.name + "\"";
    for (const auto& [key, value] : s.attrs) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key.c_str(), value);
      out += buf;
    }
    out += "}";
  }
  out += "]";
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

// The link consumer calls its observers in registration order, so a mark
// registered after each stock observer closes that observer's share of
// every callback (and a leading mark opens the first share): the split of
// the link consumer's busy time among link, interference and tcp-loss,
// measured without touching the consumers.
class ObserverMark final : public jig::LinkObserver {
 public:
  ObserverMark(double* into, Clock::time_point* last)
      : into_(into), last_(last) {}

  void OnStreamJFrame(const jig::JFrame&, std::uint64_t) override { Hit(); }
  void OnAttempt(const jig::TransmissionAttempt&) override { Hit(); }
  void OnExchange(const jig::FrameExchange&, const jig::JFrame*) override {
    Hit();
  }
  void OnLinkFinish() override { Hit(); }

 private:
  void Hit() {
    const Clock::time_point now = Clock::now();
    if (into_ != nullptr) {
      *into_ += std::chrono::duration<double>(now - *last_).count();
    }
    *last_ = now;
  }

  double* into_;
  Clock::time_point* last_;
};

double BusyNsCounterS(const char* consumer) {
  return static_cast<double>(
             jig::obs::MetricRegistry::Global()
                 .GetCounter("jig_bus_consumer_busy_ns_total", "",
                             std::string("consumer=\"") + consumer + "\"")
                 .Value()) *
         1e-9;
}

}  // namespace

Metrics MeasureLayers(const LayerInputs& in, SpanLog& spans, int parent) {
  Metrics m;

  {  // trace: one sequential pass (open + decode every record)
    const double t0 = NowS();
    jig::TraceSet set = OpenCapture(in.traces);
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      while (set.at(i).NextRef() != nullptr) ++records;
    }
    const double t1 = NowS();
    m["trace.scan_s"] = t1 - t0;
    spans.Attr(spans.Add("trace.scan", t0, t1, parent), "records",
               static_cast<double>(records));
  }

  {  // bootstrap: the fit alone
    jig::TraceSet set = OpenCapture(in.traces);
    const double t0 = NowS();
    const jig::BootstrapResult fit =
        jig::BootstrapSynchronize(set, jig::MergeConfig{}.bootstrap);
    const double t1 = NowS();
    m["bootstrap.fit_s"] = t1 - t0;
    spans.Attr(spans.Add("bootstrap.fit", t0, t1, parent), "synced",
               static_cast<double>(fit.SyncedCount()));
  }

  {  // pipeline: bootstrap + unify + reorder + shard pool + k-way merge
    ReadProbe probe;
    jig::TraceSet set = OpenCapture(in.traces, &probe);
    jig::MergeConfig config;
    config.threads = in.threads;
    std::uint64_t emitted = 0;
    const auto sink = [&emitted](jig::JFrame&&) { ++emitted; };
    const double c0 = ProcessCpuS();
    const double t0 = NowS();
    jig::MergeTracesStreaming(set, config, sink);
    const double t1 = NowS();
    const double cpu = ProcessCpuS() - c0;
    const double read_s = probe.Totals().read_s();
    m["pipeline.merge_s"] = t1 - t0;
    m["pipeline.read_s"] = read_s;
    m["pipeline.self_s"] = (t1 - t0) - read_s - m["bootstrap.fit_s"];
    m["pipeline.cpu_per_wall"] = cpu / (t1 - t0);
    const int id = spans.Add("pipeline.merge", t0, t1, parent);
    spans.Attr(id, "jframes", static_cast<double>(emitted));
    spans.Attr(id, "read_s", read_s);
    spans.Attr(id, "threads", in.threads);
  }

  const std::vector<jig::JFrame>& jframes = *in.jframes;

  {  // analysis: the monitor's stock chain over the verified stream
    Clock::time_point last = Clock::now();
    double interference_obs = 0.0;
    double tcp_obs = 0.0;
    ObserverMark open_mark(nullptr, &last);
    ObserverMark interference_mark(&interference_obs, &last);
    ObserverMark tcp_mark(&tcp_obs, &last);
    jig::AnalysisBus bus;
    auto& link = bus.Emplace<jig::LinkConsumer>();
    link.AddObserver(open_mark);
    auto& interference = bus.Emplace<jig::InterferenceConsumer>(link);
    link.AddObserver(interference_mark);
    auto& tcp_loss = bus.Emplace<jig::TcpLossConsumer>(link);
    link.AddObserver(tcp_mark);

    const double link0 = BusyNsCounterS("link");
    const double interference0 = BusyNsCounterS("interference");
    const double tcp0 = BusyNsCounterS("tcp-loss");
    const double t0 = NowS();
    for (const jig::JFrame& jf : jframes) bus.OnJFrame(jf);
    // AnalysisBus::Finish() in its registration order, one call at a time.
    const double f0 = NowS();
    link.Finish();
    const double f1 = NowS();
    interference.Finish();
    const double f2 = NowS();
    tcp_loss.Finish();
    const double t1 = NowS();

    const double link_busy = BusyNsCounterS("link") - link0 + (f1 - f0);
    m["analysis.bus_s"] = t1 - t0;
    m["analysis.link_s"] = link_busy - interference_obs - tcp_obs;
    m["analysis.interference_s"] = interference_obs +
                                   BusyNsCounterS("interference") -
                                   interference0 + (f2 - f1);
    m["analysis.tcp_loss_s"] =
        tcp_obs + BusyNsCounterS("tcp-loss") - tcp0 + (t1 - f2);
    const int id = spans.Add("analysis.bus", t0, t1, parent);
    spans.Attr(id, "jframes", static_cast<double>(jframes.size()));
    spans.Attr(id, "link_s", m["analysis.link_s"]);
    spans.Attr(id, "interference_s", m["analysis.interference_s"]);
    spans.Attr(id, "tcp_loss_s", m["analysis.tcp_loss_s"]);
  }

  {  // output log: spill-segment append + Finish at the monitor's block size
    const fs::path path = in.scratch / "append.jigs";
    const double t0 = NowS();
    {
      jig::SpillSegmentWriter writer(
          path, jig::SpillSegmentHeader{0, 0},
          jig::DeploymentConfig{}.output_records_per_block);
      for (const jig::JFrame& jf : jframes) writer.Append(jf);
      writer.Finish();
    }
    const double t1 = NowS();
    const double bytes = static_cast<double>(fs::file_size(path));
    fs::remove(path);
    m["log.append_s"] = t1 - t0;
    m["log.bytes_per_jframe"] =
        bytes / static_cast<double>(jframes.empty() ? 1 : jframes.size());
    spans.Attr(spans.Add("log.append", t0, t1, parent), "bytes", bytes);
  }

  {  // checkpoint: re-save the run's own checkpoint
    const jig::Checkpoint cp = jig::LoadCheckpoint(in.checkpoint);
    const fs::path path = in.scratch / "checkpoint.jigc";
    std::vector<double> samples;
    const double t0 = NowS();
    for (int i = 0; i < 25; ++i) {
      const double s0 = NowS();
      jig::SaveCheckpoint(path, cp);
      samples.push_back(NowS() - s0);
    }
    const double t1 = NowS();
    fs::remove(path);
    m["checkpoint.save_s"] = Median(samples);
    spans.Attr(spans.Add("checkpoint.save x25", t0, t1, parent), "median_s",
               m["checkpoint.save_s"]);
  }
  return m;
}

}  // namespace perfbench
