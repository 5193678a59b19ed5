// Single-pass analysis bus: one jframe stream, N consumers.
//
// The paper's efficiency requirement is a single streaming pass over the
// traces; the bus extends that discipline to the analysis layer.  Instead
// of collecting every jframe and re-iterating the vector once per Figure
// (the collect-then-rescan pattern the examples and benches grew), the bus
// fans each jframe of the live merge out to every registered consumer, so
// activity, coverage, dispersion, interference, TCP-loss, and the online
// monitor all ride the same pass:
//
//   AnalysisBus bus;
//   auto& activity = bus.Emplace<ActivityConsumer>(Seconds(1));
//   auto& disp = bus.Emplace<DispersionConsumer>();
//   MergeTracesStreaming(traces, config, bus.Sink());
//   bus.Finish();
//
// Link-dependent analyses (interference, TCP loss) ride the windowed
// LinkConsumer: the incremental LinkReconstructor emits attempts and
// exchanges as the watermark passes the 500 ms exchange-timeout bound, so
// their memory is O(timeout window).  Register the LinkConsumer before its
// dependents — Finish() runs in registration order:
//
//   auto& link = bus.Emplace<LinkConsumer>();
//   auto& interference = bus.Emplace<InterferenceConsumer>(link);
//   auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
//
// The full-trace ReconstructionConsumer buffer remains available as the
// opt-in path for consumers of the batch-only APIs (e.g. timeline
// rendering over the collected jframe vector).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jigsaw/analysis/activity.h"
#include "jigsaw/analysis/coverage.h"
#include "jigsaw/analysis/dispersion.h"
#include "jigsaw/analysis/interference.h"
#include "jigsaw/analysis/tcp_loss.h"
#include "jigsaw/jframe.h"
#include "jigsaw/link.h"
#include "jigsaw/online.h"
#include "jigsaw/tcp_reconstruct.h"
#include "obs/metrics.h"

namespace jig {

namespace bus_internal {

// Retained-window gauge for one named consumer — how much state the
// consumer is holding right now (jframes, tracked flows, ...).
inline obs::Gauge& RetainedWindowGauge(const char* consumer) {
  return obs::MetricRegistry::Global().GetGauge(
      "jig_bus_retained_window",
      "Current retained-window size per analysis consumer",
      std::string("consumer=\"") + consumer + "\"");
}

}  // namespace bus_internal

// One subscriber on the jframe stream.  OnJFrame is called once per jframe
// in timestamp order; Finish once after the stream ends.
class JFrameConsumer {
 public:
  virtual ~JFrameConsumer() = default;
  virtual const char* name() const = 0;
  virtual void OnJFrame(const JFrame& jf) = 0;
  virtual void Finish() {}
};

class CollectorConsumer;

class AnalysisBus {
 public:
  JFrameConsumer& Add(std::unique_ptr<JFrameConsumer> consumer) {
    busy_ns_.push_back(&obs::MetricRegistry::Global().GetCounter(
        "jig_bus_consumer_busy_ns_total",
        "Cumulative wall time each consumer spent handling jframes",
        std::string("consumer=\"") + consumer->name() + "\""));
    consumers_.push_back(std::move(consumer));
    return *consumers_.back();
  }

  // Constructs a consumer in place and returns a typed reference for
  // reading its results after Finish().
  template <typename C, typename... Args>
  C& Emplace(Args&&... args) {
    auto consumer = std::make_unique<C>(std::forward<Args>(args)...);
    C& ref = *consumer;
    Add(std::move(consumer));
    return ref;
  }

  // Designates a registered collector as the stream terminal: after the
  // const& fan-out to every other consumer, the jframe itself is moved
  // into it — the buffering path stays zero-copy end to end.
  void SetTerminal(CollectorConsumer& collector);

  void OnJFrame(JFrame&& jf);

  void OnJFrame(const JFrame& jf) {
    ++jframes_seen_;
    JFramesCounter().Add(1);
    for (std::size_t i = 0; i < consumers_.size(); ++i) Dispatch(i, jf);
  }

  // Finishes every consumer in registration order (dependencies first).
  void Finish() {
    for (auto& c : consumers_) c->Finish();
  }

  // Adapter for MergeTracesStreaming's sink signature.
  std::function<void(JFrame&&)> Sink() {
    return [this](JFrame&& jf) { OnJFrame(std::move(jf)); };
  }

  std::size_t consumer_count() const { return consumers_.size(); }
  std::uint64_t jframes_seen() const { return jframes_seen_; }

 private:
  static obs::Counter& JFramesCounter() {
    static obs::Counter* c = &obs::MetricRegistry::Global().GetCounter(
        "jig_bus_jframes_total", "JFrames dispatched on the analysis bus");
    return *c;
  }

  // One consumer call, timed into its busy-ns counter when metrics are on
  // (two clock reads per consumer per jframe; nothing when disabled).
  void Dispatch(std::size_t i, const JFrame& jf) {
    if (!obs::Enabled()) {
      consumers_[i]->OnJFrame(jf);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    consumers_[i]->OnJFrame(jf);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    busy_ns_[i]->Add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

  std::vector<std::unique_ptr<JFrameConsumer>> consumers_;
  std::vector<obs::Counter*> busy_ns_;  // parallel to consumers_
  CollectorConsumer* terminal_ = nullptr;
  std::uint64_t jframes_seen_ = 0;
};

// ---------------------------------------------------------------------------
// Stock consumers.

// Collects the stream into a vector — for consumers of batch-only APIs
// (e.g. timeline rendering) riding the same pass.  When registered as the
// bus terminal (AnalysisBus::SetTerminal) the jframes are moved in, not
// copied.
class CollectorConsumer final : public JFrameConsumer {
 public:
  const char* name() const override { return "collector"; }
  void OnJFrame(const JFrame& jf) override { jframes_.push_back(jf); }
  void Collect(JFrame&& jf) { jframes_.push_back(std::move(jf)); }

  const std::vector<JFrame>& jframes() const { return jframes_; }
  std::vector<JFrame> Take() { return std::move(jframes_); }

 private:
  std::vector<JFrame> jframes_;
};

inline void AnalysisBus::SetTerminal(CollectorConsumer& collector) {
  terminal_ = &collector;
}

inline void AnalysisBus::OnJFrame(JFrame&& jf) {
  ++jframes_seen_;
  JFramesCounter().Add(1);
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    if (consumers_[i].get() == static_cast<JFrameConsumer*>(terminal_)) {
      continue;
    }
    Dispatch(i, jf);
  }
  if (terminal_ != nullptr) terminal_->Collect(std::move(jf));
}

// Subscriber on the streaming link reconstruction.  OnStreamJFrame is
// dispatched for every jframe *before* the reconstructor's FSM sees it, so
// per-jframe side state (e.g. interference overlap flags) is already in
// place when OnAttempt/OnExchange fire; OnLinkFinish runs after the final
// Flush().
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void OnStreamJFrame(const JFrame& /*jf*/, std::uint64_t /*index*/) {}
  virtual void OnAttempt(const TransmissionAttempt& /*attempt*/) {}
  // `data` points at the exchange's DATA jframe inside the consumer's
  // window (nullptr when only control frames were observed) and is valid
  // only for the duration of the call.
  virtual void OnExchange(const FrameExchange& /*exchange*/,
                          const JFrame* /*data*/) {}
  virtual void OnLinkFinish() {}
};

// Windowed, incremental link reconstruction on the bus.  Keeps only the
// jframes still referenced by un-emitted attempts/exchanges (bounded by the
// 500 ms exchange timeout), fanning emissions out to registered observers —
// the streaming replacement for the ReconstructionConsumer's full-trace
// buffer.  Register observers before the stream starts.
class LinkConsumer final : public JFrameConsumer {
 public:
  explicit LinkConsumer(LinkConfig config = {})
      : reconstructor_(
            config,
            [this](const TransmissionAttempt& a) {
              for (auto* o : observers_) o->OnAttempt(a);
            },
            [this](const FrameExchange& ex) { Dispatch(ex); }) {}

  void AddObserver(LinkObserver& observer) {
    observers_.push_back(&observer);
  }

  const char* name() const override { return "link"; }

  void OnJFrame(const JFrame& jf) override {
    const std::uint64_t index = reconstructor_.jframes_seen();
    window_.push_back(jf);
    peak_window_ = std::max(peak_window_, window_.size());
    for (auto* o : observers_) o->OnStreamJFrame(jf, index);
    reconstructor_.OnJFrame(jf);
    Prune();
    window_gauge_.Set(static_cast<std::int64_t>(window_.size()));
  }

  void Finish() override {
    reconstructor_.Flush();
    Prune();
    for (auto* o : observers_) o->OnLinkFinish();
  }

  const LinkStats& stats() const { return reconstructor_.stats(); }
  const LinkReconstructor& reconstructor() const { return reconstructor_; }
  std::uint64_t min_live_jframe() const {
    return reconstructor_.min_live_jframe();
  }
  // Peak number of jframes buffered at once — the O(window) memory bound.
  std::size_t peak_window_jframes() const { return peak_window_; }
  std::size_t window_jframes() const { return window_.size(); }

 private:
  void Dispatch(const FrameExchange& ex) {
    const JFrame* data = nullptr;
    if (ex.data_jframe >= 0) {
      data = &window_[static_cast<std::size_t>(ex.data_jframe) - base_];
    }
    for (auto* o : observers_) o->OnExchange(ex, data);
  }

  void Prune() {
    const std::uint64_t live = reconstructor_.min_live_jframe();
    while (base_ < live && !window_.empty()) {
      window_.pop_front();
      ++base_;
    }
  }

  std::vector<LinkObserver*> observers_;
  std::deque<JFrame> window_;
  std::uint64_t base_ = 0;
  std::size_t peak_window_ = 0;
  obs::Gauge& window_gauge_ = bus_internal::RetainedWindowGauge("link");
  // Declared last: its sinks capture `this` and read the members above.
  LinkReconstructor reconstructor_;
};

// Collects the streamed attempts/exchanges (and incrementally-reconstructed
// transport state) back into the batch structs, without ever buffering the
// jframe stream — for callers that want the whole LinkReconstruction /
// TransportReconstruction but not the jframe vector.
class ReconstructionObserver final : public LinkObserver {
 public:
  explicit ReconstructionObserver(LinkConsumer& link) : link_(&link) {
    link.AddObserver(*this);
  }

  void OnAttempt(const TransmissionAttempt& a) override {
    link_rec_.attempts.push_back(a);
  }
  void OnExchange(const FrameExchange& ex, const JFrame* data) override {
    link_rec_.exchanges.push_back(ex);
    tracker_.OnExchange(ex, data != nullptr ? &data->frame : nullptr);
  }
  void OnLinkFinish() override {
    link_rec_.stats = link_->stats();
    transport_ = tracker_.Finish();
  }

  const LinkReconstruction& link() const { return link_rec_; }
  const TransportReconstruction& transport() const { return transport_; }
  LinkReconstruction TakeLink() { return std::move(link_rec_); }
  TransportReconstruction TakeTransport() { return std::move(transport_); }

 private:
  const LinkConsumer* link_;
  LinkReconstruction link_rec_;
  TransportTracker tracker_;
  TransportReconstruction transport_;
};

// Figure 4: group-dispersion distribution.
class DispersionConsumer final : public JFrameConsumer {
 public:
  explicit DispersionConsumer(bool multi_instance_only = true)
      : multi_instance_only_(multi_instance_only) {}

  const char* name() const override { return "dispersion"; }
  void OnJFrame(const JFrame& jf) override {
    if (multi_instance_only_ && jf.instances.size() < 2) return;
    distribution_.Add(static_cast<double>(jf.dispersion));
  }

  const Distribution& distribution() const { return distribution_; }

 private:
  bool multi_instance_only_;
  Distribution distribution_;
};

// Figure 8: activity / traffic-mix time series.
class ActivityConsumer final : public JFrameConsumer {
 public:
  explicit ActivityConsumer(Micros bin_width) : accumulator_(bin_width) {}

  const char* name() const override { return "activity"; }
  void OnJFrame(const JFrame& jf) override { accumulator_.Add(jf); }
  void Finish() override { series_ = accumulator_.Take(); }

  const ActivitySeries& series() const { return series_; }

 private:
  ActivityAccumulator accumulator_;
  ActivitySeries series_;
};

// Figure 6: wired-oracle coverage.  `wired` must outlive the consumer.
class WiredCoverageConsumer final : public JFrameConsumer {
 public:
  explicit WiredCoverageConsumer(const std::vector<WiredRecord>& wired)
      : wired_(&wired) {}

  const char* name() const override { return "coverage"; }
  void OnJFrame(const JFrame& jf) override { matcher_.AddJFrame(jf); }
  void Finish() override { report_ = matcher_.Match(*wired_); }

  const CoverageReport& report() const { return report_; }

 private:
  const std::vector<WiredRecord>* wired_;
  WiredCoverageMatcher matcher_;
  CoverageReport report_;
};

// Link + transport reconstruction over a full-trace buffer — the opt-in
// batch path.  Most dependents should ride the windowed LinkConsumer
// instead; keep this one for analyses that genuinely need the whole jframe
// vector alongside the reconstruction (e.g. timeline rendering).  Construct
// with a CollectorConsumer to reuse its buffer and avoid even that copy.
class ReconstructionConsumer final : public JFrameConsumer {
 public:
  ReconstructionConsumer() = default;
  explicit ReconstructionConsumer(const CollectorConsumer& shared)
      : shared_(&shared) {}

  const char* name() const override { return "reconstruction"; }
  void OnJFrame(const JFrame& jf) override {
    if (shared_ == nullptr) own_.push_back(jf);
  }
  void Finish() override {
    link_ = ReconstructLink(jframes());
    transport_ = ReconstructTransport(jframes(), link_);
  }

  const std::vector<JFrame>& jframes() const {
    return shared_ ? shared_->jframes() : own_;
  }
  const LinkReconstruction& link() const { return link_; }
  const TransportReconstruction& transport() const { return transport_; }
  LinkReconstruction TakeLink() { return std::move(link_); }
  TransportReconstruction TakeTransport() { return std::move(transport_); }

 private:
  const CollectorConsumer* shared_ = nullptr;
  std::vector<JFrame> own_;
  LinkReconstruction link_;
  TransportReconstruction transport_;
};

// Figure 9: co-channel interference.
//
// Streaming form: construct with a LinkConsumer (registered on the bus
// before this consumer) and the per-channel windowed sweep plus pair
// counters update incrementally — no jframe buffering.  Batch form:
// construct with a ReconstructionConsumer; the report is computed over its
// full-trace buffer at Finish().
class InterferenceConsumer final : public JFrameConsumer,
                                   public LinkObserver {
 public:
  explicit InterferenceConsumer(LinkConsumer& link,
                                InterferenceConfig config = {})
      : link_(&link), tracker_(config) {
    link.AddObserver(*this);
  }
  explicit InterferenceConsumer(const ReconstructionConsumer& reconstruction,
                                InterferenceConfig config = {})
      : reconstruction_(&reconstruction), config_(config) {}

  const char* name() const override { return "interference"; }
  void OnJFrame(const JFrame&) override {}  // fed via the LinkConsumer

  void OnStreamJFrame(const JFrame& jf, std::uint64_t) override {
    tracker_.OnJFrame(jf);
    tracker_.Retire(link_->min_live_jframe());
    window_gauge_.Set(static_cast<std::int64_t>(tracker_.window_size()));
  }
  void OnAttempt(const TransmissionAttempt& a) override {
    tracker_.OnAttempt(a);
  }

  void Finish() override {
    report_ = reconstruction_ != nullptr
                  ? ComputeInterference(reconstruction_->jframes(),
                                        reconstruction_->link(), config_)
                  : tracker_.Finish();
  }

  // Streaming form only: mid-stream Figure-9 report over everything seen
  // so far (the `jigtool follow` snapshot path).
  InterferenceReport SnapshotReport() const { return tracker_.Snapshot(); }

  const InterferenceReport& report() const { return report_; }
  const InterferenceTracker& tracker() const { return tracker_; }

 private:
  const LinkConsumer* link_ = nullptr;
  const ReconstructionConsumer* reconstruction_ = nullptr;
  InterferenceConfig config_;
  InterferenceTracker tracker_;
  InterferenceReport report_;
  obs::Gauge& window_gauge_ =
      bus_internal::RetainedWindowGauge("interference");
};

// Figure 11: TCP loss decomposition.  With a labeler, the grouped
// decomposition is computed as well.
//
// Streaming form: construct with a LinkConsumer (registered on the bus
// before this consumer); flows update incrementally as exchanges are
// emitted, so no jframe buffering is needed.  Batch form: construct with a
// ReconstructionConsumer to compute over its full-trace buffer.
class TcpLossConsumer final : public JFrameConsumer, public LinkObserver {
 public:
  explicit TcpLossConsumer(LinkConsumer& link, TcpLossConfig config = {},
                           TcpFlowLabeler labeler = nullptr)
      : config_(config), labeler_(std::move(labeler)) {
    link.AddObserver(*this);
  }
  explicit TcpLossConsumer(const ReconstructionConsumer& reconstruction,
                           TcpLossConfig config = {},
                           TcpFlowLabeler labeler = nullptr)
      : reconstruction_(&reconstruction),
        config_(config),
        labeler_(std::move(labeler)) {}

  const char* name() const override { return "tcp-loss"; }
  void OnJFrame(const JFrame&) override {}  // fed via the LinkConsumer

  void OnExchange(const FrameExchange& ex, const JFrame* data) override {
    tracker_.OnExchange(ex, data != nullptr ? &data->frame : nullptr);
    window_gauge_.Set(static_cast<std::int64_t>(tracker_.flows_tracked()));
  }

  void Finish() override {
    if (reconstruction_ == nullptr) transport_ = tracker_.Finish();
    const TransportReconstruction& transport =
        reconstruction_ != nullptr ? reconstruction_->transport()
                                   : transport_;
    report_ = ComputeTcpLoss(transport, config_);
    if (labeler_) {
      groups_ = ComputeTcpLossByGroup(transport, labeler_, config_);
    }
  }

  const TcpLossReport& report() const { return report_; }
  const std::vector<TcpLossGroup>& groups() const { return groups_; }
  // Streaming form only: the incrementally reconstructed transport layer.
  const TransportReconstruction& transport() const { return transport_; }
  // Streaming form only: mid-stream Figure-11 report over every flow seen
  // so far (the `jigtool follow` snapshot path).
  TcpLossReport SnapshotReport() const {
    return ComputeTcpLoss(tracker_.Snapshot(), config_);
  }

 private:
  const ReconstructionConsumer* reconstruction_ = nullptr;
  TcpLossConfig config_;
  TcpFlowLabeler labeler_;
  TransportTracker tracker_;
  TransportReconstruction transport_;
  TcpLossReport report_;
  std::vector<TcpLossGroup> groups_;
  obs::Gauge& window_gauge_ = bus_internal::RetainedWindowGauge("tcp-loss");
};

// Windowed NOC statistics (the live dashboard path).
class OnlineMonitorConsumer final : public JFrameConsumer {
 public:
  OnlineMonitorConsumer(Micros window_width, OnlineMonitor::WindowSink sink)
      : monitor_(window_width, std::move(sink)) {}

  const char* name() const override { return "online-monitor"; }
  void OnJFrame(const JFrame& jf) override { monitor_.OnJFrame(jf); }
  void Finish() override { monitor_.Flush(); }

  const OnlineMonitor& monitor() const { return monitor_; }

 private:
  OnlineMonitor monitor_;
};

}  // namespace jig
