#include "jigsaw/distributed.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace jig {
namespace {

// Retry the root connection for up to timeout_ms: in a distributed
// bring-up the wings routinely start before the root's listener is bound.
net::Socket ConnectWithRetry(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    try {
      return net::ConnectTo(host, port);
    } catch (const std::runtime_error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

std::string WingLabel(std::uint32_t wing_id) {
  return "wing=\"" + std::to_string(wing_id) + "\"";
}

}  // namespace

struct WingSession::Impl {
  WingConfig config;
  std::vector<std::unique_ptr<SocketTraceWriter>> uplinks;
  // Taps relaying each record the merge consumes to its uplink, exactly
  // once: the high-water mark makes the bootstrap re-reads relay-silent,
  // so each uplink is a verbatim copy of its radio's trace.
  std::vector<HighWaterTrace*> tees;  // owned by tee_set
  TraceSet tee_set;
  std::vector<bool> uplink_finished;
  std::vector<std::uint64_t> uplink_bytes_reported;
  std::uint64_t records_relayed = 0;

  obs::Counter& uplink_records;
  obs::Counter& uplink_bytes;
  obs::Gauge& lag;

  Impl(TraceSet& traces, const WingConfig& cfg)
      : config(cfg),
        uplink_records(obs::MetricRegistry::Global().GetCounter(
            "jig_wing_uplink_records_total",
            "Records relayed to the root, per wing",
            WingLabel(cfg.wing_id))),
        uplink_bytes(obs::MetricRegistry::Global().GetCounter(
            "jig_wing_uplink_bytes_total",
            "Framed bytes relayed to the root, per wing",
            WingLabel(cfg.wing_id))),
        lag(obs::MetricRegistry::Global().GetGauge(
            "jig_wing_lag_us", "Wing-local merge live lag, per wing",
            WingLabel(cfg.wing_id))) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto uplink = std::make_unique<SocketTraceWriter>(
          ConnectWithRetry(config.root_host, config.root_port,
                           config.connect_timeout_ms),
          traces.at(i).header(), config.wing_id, config.records_per_block);
      auto tee = std::make_unique<HighWaterTrace>(
          traces.at(i), [w = uplink.get()](const CaptureRecord& rec) {
            w->Append(rec);
          });
      tees.push_back(tee.get());
      tee_set.Add(std::move(tee));
      uplinks.push_back(std::move(uplink));
    }
    uplink_finished.assign(uplinks.size(), false);
    uplink_bytes_reported.assign(uplinks.size(), 0);
  }

  // Flushes every uplink, finishing it once its tap is drained (or on
  // `finish`), and folds relay progress into the wing's counters.
  void PublishProgress(bool finish) {
    std::uint64_t relayed = 0;
    for (std::size_t i = 0; i < uplinks.size(); ++i) {
      relayed += tees[i]->high_water();
      if (uplink_finished[i]) continue;
      // A finalized, fully-relayed radio finalizes its uplink right away
      // — like a capture daemon shutting down — so the root's watermark
      // never stalls on a wing radio that has already said everything.
      if (finish || tees[i]->Drained()) {
        uplinks[i]->Finish();
        uplink_finished[i] = true;
      } else {
        uplinks[i]->Sync();
      }
      const std::uint64_t bytes = uplinks[i]->bytes_sent();
      if (bytes > uplink_bytes_reported[i]) {
        uplink_bytes.Add(bytes - uplink_bytes_reported[i]);
        uplink_bytes_reported[i] = bytes;
      }
    }
    if (relayed > records_relayed) {
      uplink_records.Add(relayed - records_relayed);
      records_relayed = relayed;
    }
  }
};

WingSession::WingSession(TraceSet& traces, const WingConfig& config)
    : impl_(std::make_unique<Impl>(traces, config)) {}

WingSession::~WingSession() = default;

std::uint64_t WingSession::records_relayed() const {
  return impl_->records_relayed;
}

MergeStreamStats WingSession::Run() {
  MergeStreamStats result;
  {
    MergeSession session(impl_->tee_set, impl_->config.merge,
                         [](JFrame&&) {});
    for (;;) {
      const auto status = session.Poll();
      impl_->PublishProgress(/*finish=*/false);
      impl_->lag.Set(session.live_lag_us());
      if (status == MergeSession::Status::kDone) break;
      // Live sources: wait for the writers to append more.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    result.bootstrap = session.bootstrap();
    result.stats = session.stats();
  }
  // The local merge does NOT consume every record: the unifier skips
  // traces its wing-local bootstrap could not sync (a wing holds only
  // some of the monitors, so clock bridges that run through another
  // wing's radios are invisible here).  The relay contract is verbatim —
  // the root's bootstrap sees every wing side by side and CAN sync them —
  // so drain each tee to the end: the replay is relay-silent up to the
  // high-water mark and forwards only the never-consumed tail.
  for (HighWaterTrace* tee : impl_->tees) {
    tee->Rewind();
    while (tee->NextRef() != nullptr) {
    }
  }
  impl_->PublishProgress(/*finish=*/true);
  return result;
}

struct RootSession::Impl {
  RootConfig config;
  net::Listener listener;
  std::uint64_t boundary_jframes = 0;
  std::uint64_t jframes = 0;

  obs::Counter& boundary_counter = obs::MetricRegistry::Global().GetCounter(
      "jig_root_boundary_jframes_total",
      "JFrames unifying frame copies heard on more than one wing");

  explicit Impl(const RootConfig& cfg)
      : config(cfg), listener(cfg.host, cfg.port) {}
};

RootSession::RootSession(const RootConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

RootSession::~RootSession() = default;

std::uint16_t RootSession::port() const { return impl_->listener.port(); }

std::uint64_t RootSession::boundary_jframes() const {
  return impl_->boundary_jframes;
}

std::uint64_t RootSession::jframes() const { return impl_->jframes; }

MergeStreamStats RootSession::Run(std::function<void(JFrame&&)> sink) {
  Impl& impl = *impl_;
  TraceSet traces = AcceptTraces(impl.listener, impl.config.n_streams,
                                 impl.config.accept_timeout_ms,
                                 impl.config.resume_reconnects);
  // Which wing each radio's stream arrived from: the boundary-overlap
  // attribution for the reconciliation counter below.
  std::unordered_map<RadioId, std::uint32_t> wing_of;
  std::vector<SocketTrace*> sockets;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& st = dynamic_cast<SocketTrace&>(traces.at(i));
    wing_of.emplace(st.header().radio, st.source_id());
    sockets.push_back(&st);
  }

  // The boundary-overlap reconciliation pass: the global unifier groups
  // every radio's copy of a frame regardless of which wing relayed it, so
  // a frame heard across the wing boundary collapses into ONE jframe here
  // (on a wing alone it would have produced partial groups).  The wrapper
  // makes that visible: count jframes whose instances span wings.
  const auto counting_sink = [&impl, &wing_of, &sink](JFrame&& jf) {
    ++impl.jframes;
    std::set<std::uint32_t> wings;
    for (const FrameInstance& inst : jf.instances) {
      const auto it = wing_of.find(inst.radio);
      if (it != wing_of.end()) wings.insert(it->second);
    }
    if (wings.size() > 1) {
      ++impl.boundary_jframes;
      impl.boundary_counter.Add(1);
    }
    sink(std::move(jf));
  };

  MergeStreamStats result;
  MergeSession session(traces, impl.config.merge, counting_sink);
  for (;;) {
    // Pick up re-dialing wings before pulling data: a dead uplink's
    // stream is parked (resumable) and only a resumed connection can
    // unpark it.  A connection with an unknown identity mid-run is not
    // one of our n_streams — drop it rather than let a stray dial wedge
    // or grow the merge.
    if (impl.config.resume_reconnects) {
      for (;;) {
        net::Socket fresh = impl.listener.TryAccept();
        if (!fresh.valid()) break;
        auto stranger = SocketTrace::OpenOrResume(
            std::move(fresh), sockets, impl.config.accept_timeout_ms);
        if (stranger) {
          std::fprintf(stderr,
                       "root: dropping unexpected stream (source %u "
                       "radio %u) — not a resume of any known uplink\n",
                       stranger->source_id(), stranger->header().radio);
        }
      }
    }
    // Drain every wing uplink first — see SocketTrace::Ingest for why
    // skipping currently-unneeded streams can deadlock the senders.
    for (SocketTrace* s : sockets) s->Ingest();
    const auto status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    // Starved: the wings have not relayed further yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.bootstrap = session.bootstrap();
  result.stats = session.stats();
  return result;
}

}  // namespace jig
