// perfbench: the processes run.py starts for one benchmark run.
//
//   perfbench sim           --seed S --capture-s C --out DIR
//   perfbench batch-setup   --srcs CAP,... --outs DIR,...
//   perfbench batch         --caps DIR,... --refs REF,... --state DIR
//                           --setup-s X --seconds R
//   perfbench live          --srcs CAP,... --refs REF,... --work DIR
//                           --speedup N --period-ms P --seconds R
//   perfbench restart-setup --src CAP --capture-s C --fraction F --work DIR
//                           [--ref-cache FILE]
//   perfbench restart       --points DIR,... --setup-s X --seconds R
//
// A list holds one entry per simulated day.
// The timed subcommands also take `--trace-out FILE`: instead of the
// untraced measurement they make the traced run (read probe + standalone
// layer calls), print the ledger, and write every span to FILE.  Each
// subcommand prints one JSON object as its last line of standard output
// and exits non-zero on a usage or set-up error.  A run whose output does
// not verify is not an error: it is counted in "failed".
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------- plumbing

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 0) throw std::invalid_argument("dangling argument");
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string Str(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  // A comma-separated list: one entry per day.
  std::vector<std::string> List(const std::string& key) const {
    std::vector<std::string> out;
    std::string rest = Str(key);
    for (std::size_t comma; (comma = rest.find(',')) != std::string::npos;) {
      out.push_back(rest.substr(0, comma));
      rest.erase(0, comma + 1);
    }
    out.push_back(rest);
    return out;
  }
  double Num(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// The one-line JSON result, keys in insertion order.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(key, buf);
  }
  JsonLine& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonLine& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) quoted.push_back(c);
    }
    return Raw(key, quoted + "\"");
  }
  JsonLine& Metrics(const std::string& key, const perfbench::Metrics& m) {
    std::string obj = "{";
    for (const auto& [k, v] : m) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      if (obj.size() > 1) obj += ",";
      obj += "\"" + k + "\":" + buf;
    }
    return Raw(key, obj + "}");
  }
  void Print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  JsonLine& Raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

// A finished capture held in memory: what a live writer replays.
struct LoadedCapture {
  std::vector<jig::TraceHeader> headers;
  std::vector<std::vector<jig::CaptureRecord>> records;
};

LoadedCapture LoadCapture(const fs::path& dir) {
  LoadedCapture cap;
  jig::TraceSet set = OpenCapture(dir);
  for (std::size_t i = 0; i < set.size(); ++i) {
    cap.headers.push_back(set.at(i).header());
    auto& recs = cap.records.emplace_back();
    while (auto rec = set.at(i).Next()) recs.push_back(std::move(*rec));
  }
  return cap;
}

// Earliest capture time (NTP estimate) of any record: where the writer's
// schedule starts.
std::int64_t CaptureOrigin(const LoadedCapture& cap) {
  std::int64_t origin = INT64_MAX;
  for (std::size_t i = 0; i < cap.headers.size(); ++i) {
    if (cap.records[i].empty()) continue;
    origin = std::min(origin, cap.headers[i].ntp_utc_of_local_zero_us +
                                  cap.records[i].front().timestamp);
  }
  return origin == INT64_MAX ? 0 : origin;
}

std::vector<std::int64_t> NtpZeroByRadio(const LoadedCapture& cap) {
  std::vector<std::int64_t> out;
  for (const jig::TraceHeader& h : cap.headers) {
    if (out.size() <= h.radio) out.resize(h.radio + 1u, 0);
    out[h.radio] = h.ntp_utc_of_local_zero_us;
  }
  return out;
}

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// One timed repetition of a workload.
struct Rep {
  std::size_t point = 0;             // which day
  MonitorRun run;
  std::string error;                 // non-empty: the repetition failed
  // End-to-end figures (see README.md, "End-to-end metrics").
  double input_records = 0.0;        // capture records the run consumed
  double input_capture_s = 0.0;      // capture seconds they span
  double wall_s = 0.0;               // monitor open (or t0) to done
  double cpu_s = 0.0;                // CPU of the system under test
  double catch_up_s = 0.0;           // input complete on disk -> caught up
  std::vector<double> lag_ms;        // one sample per jframe
  std::vector<jig::JFrame> jframes;  // the verified log (traced reps only)
  std::vector<double> publish_s;     // when the writer published (rel.)
  std::vector<double> late_ms;       // live only: writer lateness
  double origin_s = 0.0;             // clock origin of publish_s / lag
};

// What the live writer thread reports back.
struct WriterLog {
  std::vector<double> publish_s;  // since t0
  std::vector<double> late_ms;    // behind each chunk's due time
  double cpu_s = 0.0;             // the writer thread's own CPU
  std::string error;
};

// Lag when the whole input was on disk before the monitor opened: every
// chunk is due at the open, so a jframe's lag is the end of the poll that
// made it durable (`count` = persisted, or recovered after a restart)
// measured from the open.
std::vector<double> LagFromOpenMs(const MonitorRun& run, bool recovered) {
  std::vector<PollSample> polls;
  std::uint64_t n = 0;
  for (const PollSpan& p : run.polls) {
    const std::uint64_t count =
        recovered ? p.recovered : p.persisted - run.initial;
    polls.push_back({p.end_s - run.begin_s, count});
    n = std::max(n, count);
  }
  std::vector<double> lag = DurableTimes(polls, n);
  for (double& l : lag) l *= 1e3;
  return lag;
}

// Verifies the log under `state` against the first `n` reference hashes;
// keeps the decoded jframes when `keep` (the traced run replays them).
void Verify(const fs::path& state, const Reference& ref, std::size_t n,
            bool keep, Rep& rep) {
  if (!rep.error.empty()) return;
  try {
    std::vector<std::uint64_t> hashes;
    if (keep) {
      rep.jframes = ReadOutputLog(state);
      hashes = HashAll(rep.jframes);
    } else {
      hashes = HashOutputLog(state);
    }
    rep.error = CheckPrefix(hashes, ref.hashes, n);
  } catch (const std::exception& e) {
    rep.error = std::string("output log unreadable: ") + e.what();
  }
}

// ------------------------------------------------------------ traced run

struct TracedInputs {
  std::string workload;
  std::vector<Rep>* untraced = nullptr;
  std::vector<Rep>* traced = nullptr;  // last one is reported
  ReadProbe* probe = nullptr;          // the last traced rep's probe
  std::uint64_t input_records = 0;     // records the run had to read
  LayerInputs layers;
  bool analysis = false;
  fs::path trace_out;
};

// Per-layer metrics of the traced run, the ledger, and the span file.
int ReportTraced(const TracedInputs& t) {
  std::uint64_t failed = 0;
  for (const Rep& r : *t.untraced) failed += r.error.empty() ? 0 : 1;
  for (const Rep& r : *t.traced) failed += r.error.empty() ? 0 : 1;
  const std::uint64_t attempted = t.untraced->size() + t.traced->size();
  for (const auto* reps : {t.untraced, t.traced}) {
    for (const Rep& r : *reps) {
      if (!r.error.empty()) std::printf("FAILED: %s\n", r.error.c_str());
    }
  }
  const Rep& rep = t.traced->back();
  if (!rep.error.empty()) {
    JsonLine().Int("attempted", attempted).Int("failed", failed).Print();
    return 0;
  }
  const MonitorRun& run = rep.run;

  SpanLog spans;
  const int root = spans.Add("run:" + t.workload, run.begin_s, run.end_s);
  spans.Add("monitor.construct", run.begin_s, run.opened_s, root);
  ReadTotals prev;
  double poll_s = 0.0;
  for (const PollSpan& p : run.polls) {
    const int id = spans.Add("monitor.poll", p.start_s, p.end_s, root);
    spans.Attr(id, "persisted", static_cast<double>(p.persisted));
    spans.Attr(id, "records_read",
               static_cast<double>(p.reads.records - prev.records));
    spans.Attr(id, "read_s", p.reads.read_s() - prev.read_s());
    prev = p.reads;
    poll_s += p.end_s - p.start_s;
  }

  const double l0 = NowS();
  const int layers_root = spans.Add("layers", l0, l0);
  Metrics m = MeasureLayers(t.layers, spans, layers_root);
  const double l1 = NowS();
  spans.End(layers_root, l1);

  const ReadTotals reads = t.probe->Totals();
  std::vector<double> traced_busy, untraced_busy;
  for (const Rep& r : *t.traced) traced_busy.push_back(r.run.BusyS());
  for (const Rep& r : *t.untraced) untraced_busy.push_back(r.run.BusyS());

  m["trace.records_read"] = static_cast<double>(reads.records);
  m["trace.read_s"] = reads.read_s();
  m["trace.rewinds"] = static_cast<double>(reads.rewinds);
  m["trace.read_amplification"] =
      static_cast<double>(reads.records) /
      static_cast<double>(t.input_records == 0 ? 1 : t.input_records);
  const std::size_t growing = run.GrowingPolls();
  m["checkpoint.count"] = static_cast<double>(growing);
  m["service.polls"] = static_cast<double>(run.polls.size());
  m["service.idle_polls"] = static_cast<double>(run.polls.size() - growing);
  m["service.poll_s"] = poll_s;
  std::vector<PollSample> samples;
  for (const PollSpan& p : run.polls) {
    samples.push_back({p.end_s - rep.origin_s, p.persisted - run.initial});
  }
  m["service.output_stall_s"] = LongestOutputStallS(
      rep.publish_s, samples, run.end_s - rep.origin_s);
  m["recovery.open_s"] = run.opened_s - run.begin_s;
  m["recovery.replay_s"] =
      run.polls.empty() ? 0.0 : run.polls[0].end_s - run.polls[0].start_s;
  m["recovery.replayed_jframes"] = static_cast<double>(run.recovered);
  m["recovery.records_read"] = static_cast<double>(reads.records);
  m["tracing.overhead"] = Median(traced_busy) / Median(untraced_busy);

  // Ledger: the monitor's busy time on the polling thread, split by the
  // layer rows measured above.  Standalone rows are scaled to what this
  // run did (appended jframes, checkpoints written).
  const double busy = run.BusyS();
  const double appended =
      static_cast<double>(run.persisted - run.recovered);
  const double logged = static_cast<double>(
      rep.jframes.empty() ? 1 : rep.jframes.size());
  const std::vector<std::pair<std::string, double>> rows = {
      {"recovery.open (in run, constructor)", m["recovery.open_s"]},
      {"trace.read (in run, read probe)", reads.read_s()},
      {"bootstrap.fit (standalone)", m["bootstrap.fit_s"]},
      {"pipeline.self (standalone)", m["pipeline.self_s"]},
      {"analysis.bus (standalone)", t.analysis ? m["analysis.bus_s"] : 0.0},
      {"log.append (standalone x appended)",
       m["log.append_s"] * appended / logged},
      {"checkpoint.save (standalone x count)",
       m["checkpoint.save_s"] * static_cast<double>(growing)},
  };
  double accounted = 0.0;
  std::printf("ledger: %s, monitor busy %.4f s over %zu polls\n",
              t.workload.c_str(), busy, run.polls.size());
  std::string ledger_json = "[";
  for (const auto& [row, secs] : rows) {
    accounted += secs;
    std::printf("  %-40s %9.4f s  %5.1f%%\n", row.c_str(), secs,
                100.0 * secs / busy);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s{\"row\":\"%s\",\"s\":%.9f}",
                  ledger_json.size() > 1 ? "," : "", row.c_str(), secs);
    ledger_json += buf;
  }
  m["ledger.unaccounted_s"] = busy - accounted;
  std::printf("  %-40s %9.4f s  %5.1f%%\n", "unaccounted", busy - accounted,
              100.0 * (busy - accounted) / busy);
  std::printf("tracing overhead: %.4f (traced / untraced busy time)\n",
              m["tracing.overhead"]);
  char buf[96];
  std::snprintf(buf, sizeof buf, ",{\"row\":\"unaccounted\",\"s\":%.9f}]",
                busy - accounted);
  ledger_json += buf;

  const double origin = run.begin_s;
  std::string doc = "{\"workload\":\"" + t.workload + "\",\"busy_s\":" +
                    std::to_string(busy) + ",\"ledger\":" + ledger_json +
                    ",\"layers_wall_s\":" + std::to_string(l1 - l0) +
                    ",\"spans\":" + spans.ToJson(origin) + "}\n";
  WriteFile(t.trace_out, doc);

  JsonLine()
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Metrics("metrics", m)
      .Print();
  return 0;
}

// -------------------------------------------------------------------- sim

int CmdSim(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.Num("seed", 1));
  const int capture_s = static_cast<int>(a.Num("capture-s", 120));
  const fs::path out = a.Str("out");
  fs::remove_all(out);
  const double t0 = NowS();
  SimulateCapture(seed, capture_s, out / "cap");
  const double t1 = NowS();
  const Reference ref =
      ComputeReference(out / "cap", jig::Seconds(capture_s));
  const double t2 = NowS();
  SaveReference(out / "ref.bin", ref);
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, StreamFingerprint(ref.hashes));
  JsonLine()
      .Int("records", ref.records)
      .Int("jframes", ref.hashes.size())
      .Int("radios", ref.radios)
      .Str("fingerprint", fp)
      .Num("sim_s", t1 - t0)
      .Num("reference_s", t2 - t1)
      .Print();
  return 0;
}

// One JSON line of the end-to-end metrics over the untraced repetitions.
// A workload's inputs are several points (independent simulated days).
// Each day's figures are those of its fastest repetition (by wall time):
// the work is deterministic, and on a shared host other tenants only ever
// add time, in stretches of several seconds that can cover half a run, so
// the least-disturbed repetition is the steadiest estimate of the
// program's own cost.  The days' figures are then combined (input
// variation: a day's figures hinge on when a near-silent radio happens to
// transmit, so they spread widely and a median over days would jump
// between clusters).  Times and lag percentiles are averaged over the
// days; rates are total work over total time, so a day with almost
// nothing to do cannot dominate them.  Lag percentiles are taken per
// repetition, over that repetition's jframes.  `setup_s` and
// `peak_rss_mb` are measured by the caller.
int ReportUntraced(const std::vector<Rep>& reps, std::size_t points,
                   double setup_s, double peak_rss_mb) {
  struct Figures {
    double records, capture_s, wall_s, cpu_s, lag_p50, lag_p99, catch_up;
  };
  std::vector<std::vector<Figures>> by_point(points);
  std::uint64_t failed = 0;
  std::size_t samples = 0;
  for (const Rep& rep : reps) {
    const auto p50 = Percentile(rep.lag_ms, 50);
    const auto p99 = Percentile(rep.lag_ms, 99);
    std::string error = rep.error;
    // A repetition that made nothing durable has no lag samples at all;
    // that is a figure of the input, not a failure.
    if (error.empty() && !rep.lag_ms.empty() && !p99) {
      error = std::to_string(rep.lag_ms.size()) +
              " lag samples support no p99";
    }
    std::printf("rep: point %zu, wall %.4f s, cpu %.4f s, catch-up %.4f s, "
                "lag p50 %.1f ms, p99 %.1f ms%s\n",
                rep.point, rep.wall_s, rep.cpu_s, rep.catch_up_s,
                p50.value_or(-1.0), p99.value_or(-1.0),
                error.empty() ? "" : " (failed)");
    if (!error.empty()) {
      ++failed;
      std::printf("FAILED: %s\n", error.c_str());
      continue;
    }
    samples += rep.lag_ms.size();
    const double none = std::numeric_limits<double>::quiet_NaN();
    by_point.at(rep.point).push_back(
        {rep.input_records, rep.input_capture_s, rep.wall_s, rep.cpu_s,
         p50.value_or(none), p99.value_or(none), rep.catch_up_s});
  }
  // Per day, its fastest repetition (none if every repetition failed).
  std::vector<Figures> fastest;
  for (const auto& day : by_point) {
    if (day.empty()) continue;
    fastest.push_back(*std::min_element(
        day.begin(), day.end(), [](const Figures& x, const Figures& y) {
          return x.wall_s < y.wall_s;
        }));
  }
  const auto mean_over_days = [&](double Figures::*field) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const Figures& f : fastest) {
      if (std::isnan(f.*field)) continue;
      sum += f.*field;
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const auto rate = [&](double Figures::*work) {
    double done = 0.0;
    double took = 0.0;
    for (const Figures& f : fastest) {
      done += f.*work;
      took += f.wall_s;
    }
    return took > 0.0 ? done / took : 0.0;
  };
  std::printf("%zu repetitions over %zu points, %zu lag samples\n",
              reps.size(), points, samples);
  JsonLine()
      .Int("attempted", reps.size())
      .Int("failed", failed)
      .Metrics("metrics",
               {{"events_per_s", rate(&Figures::records)},
                {"x_realtime", rate(&Figures::capture_s)},
                {"cpu_s", mean_over_days(&Figures::cpu_s)},
                {"peak_rss_mb", peak_rss_mb},
                {"setup_s", setup_s},
                {"lag_p50_ms", mean_over_days(&Figures::lag_p50)},
                {"lag_p99_ms", mean_over_days(&Figures::lag_p99)},
                {"recovery_s", mean_over_days(&Figures::catch_up)}})
      .Print();
  return 0;
}

// Repeats `rep(point)` over the points in turn until `seconds` have passed
// and every point ran at least once.
template <typename F>
std::vector<Rep> Repeat(double seconds, std::size_t points, F rep) {
  std::vector<Rep> reps;
  const double start = NowS();
  while (reps.size() < std::max<std::size_t>(points, 2) ||
         NowS() - start < seconds) {
    const std::size_t point = reps.size() % points;
    reps.push_back(rep(point));
    reps.back().point = point;
  }
  return reps;
}

std::string JoinSamples(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.9g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

// ------------------------------------------------------------------ batch

// Writes each day's capture as .jigt twice; every write is one set-up
// sample.
int CmdBatchSetup(const Args& a) {
  const std::vector<std::string> srcs = a.List("srcs");
  const std::vector<std::string> outs = a.List("outs");
  if (srcs.size() != outs.size()) throw std::invalid_argument("--srcs/--outs");
  std::vector<double> samples;
  for (std::size_t d = 0; d < srcs.size(); ++d) {
    LoadedCapture cap = LoadCapture(srcs[d]);
    jig::TraceSet set;
    for (std::size_t i = 0; i < cap.headers.size(); ++i) {
      set.Add(std::make_unique<jig::MemoryTrace>(cap.headers[i],
                                                 std::move(cap.records[i])));
    }
    for (int i = 0; i < 2; ++i) {
      fs::remove_all(outs[d]);
      const double t0 = NowS();
      set.WriteDirectory(outs[d]);
      samples.push_back(NowS() - t0);
    }
  }
  JsonLine().Str("setup_samples", JoinSamples(samples)).Print();
  return 0;
}

Rep RunBatchRep(const fs::path& cap, const fs::path& state,
                const Reference& ref, ReadProbe* probe) {
  fs::remove_all(state);
  Rep rep;
  DriveOptions opt;
  opt.stop = StopWhen::kDone;
  opt.timeout_s = 150.0;
  opt.probe = probe;
  const double c0 = ProcessCpuS();
  rep.run = DriveMonitor(MonitorConfig(cap, state, /*threads=*/0,
                                       /*analysis=*/true, ref.radios),
                         opt);
  rep.cpu_s = ProcessCpuS() - c0;
  rep.error = rep.run.error;
  rep.input_records = static_cast<double>(ref.records);
  rep.input_capture_s = static_cast<double>(ref.capture_us) * 1e-6;
  rep.wall_s = rep.run.end_s - rep.run.begin_s;
  rep.catch_up_s = rep.wall_s;
  rep.lag_ms = LagFromOpenMs(rep.run, /*recovered=*/false);
  // The capture was complete on disk before the monitor opened.
  rep.origin_s = rep.run.begin_s;
  rep.publish_s = {0.0};
  Verify(state, ref, ref.hashes.size(), probe != nullptr, rep);
  return rep;
}

int CmdBatch(const Args& a) {
  const std::vector<std::string> caps = a.List("caps");
  std::vector<Reference> refs;
  for (const std::string& r : a.List("refs")) refs.push_back(LoadReference(r));
  if (refs.size() != caps.size()) throw std::invalid_argument("--caps/--refs");
  const fs::path state = a.Str("state");
  const std::string trace_out = a.Str("trace-out", "");

  if (!trace_out.empty()) {
    std::vector<Rep> untraced, traced;
    std::vector<std::unique_ptr<ReadProbe>> probes;
    for (int i = 0; i < 2; ++i) {
      untraced.push_back(RunBatchRep(caps[0], state, refs[0], nullptr));
      probes.push_back(std::make_unique<ReadProbe>());
      traced.push_back(
          RunBatchRep(caps[0], state, refs[0], probes.back().get()));
    }
    TracedInputs t;
    t.workload = "batch";
    t.untraced = &untraced;
    t.traced = &traced;
    t.probe = probes.back().get();
    t.input_records = refs[0].records;
    t.layers = {caps[0], 0, &traced.back().jframes,
                state / "checkpoint.jigc", state.parent_path()};
    t.analysis = true;
    t.trace_out = trace_out;
    return ReportTraced(t);
  }
  const std::vector<Rep> reps =
      Repeat(a.Num("seconds", 10), caps.size(), [&](std::size_t d) {
        return RunBatchRep(caps[d], state, refs[d], nullptr);
      });
  return ReportUntraced(reps, caps.size(), a.Num("setup-s", 0),
                        PeakRssMiB());
}

// ------------------------------------------------------------------- live

struct LivePlan {
  LoadedCapture cap;
  ChunkSchedule schedule;
  std::int64_t last_chunk = 0;
  std::vector<std::int64_t> ntp_zero;
};

LivePlan MakeLivePlan(LoadedCapture cap, double speedup, double period_ms) {
  LivePlan plan;
  plan.cap = std::move(cap);
  plan.schedule.origin_us = CaptureOrigin(plan.cap);
  plan.schedule.span_us = static_cast<std::int64_t>(speedup * period_ms * 1e3);
  plan.schedule.period_s = period_ms * 1e-3;
  plan.ntp_zero = NtpZeroByRadio(plan.cap);
  for (std::size_t i = 0; i < plan.cap.headers.size(); ++i) {
    if (plan.cap.records[i].empty()) continue;
    plan.last_chunk = std::max(
        plan.last_chunk,
        plan.schedule.ChunkOf(plan.cap.headers[i].ntp_utc_of_local_zero_us,
                              plan.cap.records[i].back().timestamp));
  }
  return plan;
}

// The open-loop writer: chunk k is published at t0 + k·period whether or
// not the monitor keeps up; the last chunk finalizes every trace.
void Generate(const LivePlan& plan, jig::TraceSetWriter& writer, double t0,
              WriterLog& log) {
  const double c0 = ThreadCpuS();
  std::vector<std::size_t> cursor(plan.cap.headers.size(), 0);
  try {
    for (std::int64_t k = 1; k <= plan.last_chunk; ++k) {
      const double wait = t0 + plan.schedule.DueS(k) - NowS();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      for (std::size_t i = 0; i < cursor.size(); ++i) {
        const auto& recs = plan.cap.records[i];
        const std::int64_t zero = plan.cap.headers[i].ntp_utc_of_local_zero_us;
        while (cursor[i] < recs.size() &&
               plan.schedule.ChunkOf(zero, recs[cursor[i]].timestamp) <= k) {
          writer.Append(i, recs[cursor[i]++]);
        }
      }
      if (k == plan.last_chunk) {
        writer.FinalizeAll();
      } else {
        writer.Sync();
      }
      const double now = NowS() - t0;
      log.publish_s.push_back(now);
      log.late_ms.push_back((now - plan.schedule.DueS(k)) * 1e3);
    }
  } catch (const std::exception& e) {
    log.error = std::string("writer failed: ") + e.what();
  }
  log.cpu_s = ThreadCpuS() - c0;
}

Rep RunLiveRep(const LivePlan& plan, const fs::path& work,
               const Reference& ref, ReadProbe* probe) {
  const fs::path traces = work / "traces";
  const fs::path state = work / "state";
  fs::remove_all(traces);
  fs::remove_all(state);
  Rep rep;
  jig::TraceSetWriter writer(traces);
  for (const jig::TraceHeader& h : plan.cap.headers) writer.AddRadio(h);

  DriveOptions opt;
  opt.stop = StopWhen::kDone;
  const double final_due = plan.schedule.DueS(plan.last_chunk);
  opt.timeout_s = final_due + 60.0;
  opt.sleep_when_idle = true;
  opt.probe = probe;
  WriterLog gen_log;
  const double c0 = ProcessCpuS();
  const double t0 = NowS();
  std::thread generator([&] { Generate(plan, writer, t0, gen_log); });
  rep.run = DriveMonitor(MonitorConfig(traces, state, /*threads=*/1,
                                       /*analysis=*/true,
                                       plan.cap.headers.size()),
                         opt);
  generator.join();
  rep.cpu_s = ProcessCpuS() - c0 - gen_log.cpu_s;
  rep.input_records = static_cast<double>(ref.records);
  rep.input_capture_s = static_cast<double>(ref.capture_us) * 1e-6;
  rep.wall_s = rep.run.end_s - t0;
  rep.catch_up_s = rep.run.end_s - (t0 + final_due);
  rep.origin_s = t0;
  rep.publish_s = std::move(gen_log.publish_s);
  rep.late_ms = std::move(gen_log.late_ms);
  rep.error = !rep.run.error.empty() ? rep.run.error : gen_log.error;
  Verify(state, ref, ref.hashes.size(), /*keep=*/true, rep);
  if (rep.error.empty()) {
    std::vector<PollSample> polls;
    for (const PollSpan& p : rep.run.polls) {
      polls.push_back({p.end_s - t0, p.persisted});
    }
    rep.lag_ms = LagSamplesMs(rep.jframes, polls, plan.schedule, plan.ntp_zero);
  }
  if (probe == nullptr) rep.jframes.clear();
  return rep;
}

int CmdLive(const Args& a) {
  const fs::path work = a.Str("work");
  const std::vector<std::string> srcs = a.List("srcs");
  std::vector<Reference> refs;
  for (const std::string& r : a.List("refs")) refs.push_back(LoadReference(r));
  if (refs.size() != srcs.size()) throw std::invalid_argument("--srcs/--refs");
  const double speedup = a.Num("speedup", 20);
  const double period_ms = a.Num("period-ms", 10);
  const std::string trace_out = a.Str("trace-out", "");
  // Set-up: decoding a day's capture into the writer's memory.  Days are
  // loaded one at a time, before each repetition.
  std::vector<double> loads;
  const auto plan_for = [&](std::size_t d) {
    const double t0 = NowS();
    LoadedCapture cap = LoadCapture(srcs[d]);
    loads.push_back(NowS() - t0);
    return MakeLivePlan(std::move(cap), speedup, period_ms);
  };

  if (!trace_out.empty()) {
    std::vector<Rep> untraced, traced;
    auto probe = std::make_unique<ReadProbe>();
    const LivePlan plan = plan_for(0);
    untraced.push_back(RunLiveRep(plan, work, refs[0], nullptr));
    traced.push_back(RunLiveRep(plan, work, refs[0], probe.get()));
    TracedInputs t;
    t.workload = "live";
    t.untraced = &untraced;
    t.traced = &traced;
    t.probe = probe.get();
    t.input_records = refs[0].records;
    t.layers = {srcs[0], 1, &traced.back().jframes,
                work / "state" / "checkpoint.jigc", work};
    t.analysis = true;
    t.trace_out = trace_out;
    return ReportTraced(t);
  }

  const std::vector<Rep> reps =
      Repeat(a.Num("seconds", 10), srcs.size(), [&](std::size_t d) {
        const LivePlan plan = plan_for(d);
        return RunLiveRep(plan, work, refs[d], nullptr);
      });
  // Validity of the open loop: a writer that published late would
  // understate lag, so such a run is flagged rather than trusted.
  std::vector<double> late;
  for (const Rep& rep : reps) {
    late.insert(late.end(), rep.late_ms.begin(), rep.late_ms.end());
  }
  double late_max = 0.0;
  for (const double l : late) late_max = std::max(late_max, l);
  std::printf("live.gen_late_ms: p50 %.3f max %.3f over %zu chunks%s\n",
              Median(late), late_max, late.size(),
              late_max > 10.0 * period_ms
                  ? " -- writer ran late; lag not trusted"
                  : "");
  // The process also holds the writer's copy of one day (~75 MB a 30 s
  // day), so this peak includes it.
  return ReportUntraced(reps, srcs.size(), Median(loads), PeakRssMiB());
}

// ---------------------------------------------------------------- restart

// One restart point: a partial capture, the stopped monitor's state, and
// what recovery must reproduce.  Stored as point.txt in the point's dir.
struct RestartPoint {
  fs::path dir;
  fs::path ref;
  std::uint64_t durable = 0;
  double partial_records = 0.0;
  double partial_capture_s = 0.0;
};

RestartPoint LoadPoint(const fs::path& dir) {
  RestartPoint p;
  p.dir = dir;
  std::ifstream in(dir / "point.txt");
  std::string ref;
  in >> ref >> p.durable >> p.partial_records >> p.partial_capture_s;
  if (!in) throw std::runtime_error("bad " + (dir / "point.txt").string());
  p.ref = ref;
  return p;
}

// A day's restart point: every radio written in lockstep up to `fraction`
// of the day, then a monitor (threads = 1, analysis off) run over it to the
// end; that whole preparation is the set-up sample.  The partial capture
// is finalized, as if its writers had stopped there, so the stopped
// monitor has made the whole partial capture durable (D).  With the
// writers left unfinalized, D would be whatever the quiet radio's last
// burst released: anywhere from 0 to most of the day.  The partial
// capture's own reference is computed afterwards, untimed, and kept in
// `ref-cache` (if given): the partial capture is a function of the day
// and the fraction, so later set-ups of the same point reuse it.
int CmdRestartSetup(const Args& a) {
  const fs::path dir = a.Str("work");
  const fs::path traces = dir / "traces";
  const fs::path state0 = dir / "state0";
  const double fraction = a.Num("fraction", 0.7);
  const LoadedCapture cap = LoadCapture(a.Str("src"));
  const std::int64_t capture_us =
      static_cast<std::int64_t>(a.Num("capture-s", 0) * 1e6);
  const std::int64_t cut =
      CaptureOrigin(cap) +
      static_cast<std::int64_t>(fraction * static_cast<double>(capture_us));
  fs::remove_all(dir);

  const double t0 = NowS();
  std::uint64_t partial_records = 0;
  {
    jig::TraceSetWriter writer(traces);
    for (std::size_t r = 0; r < cap.headers.size(); ++r) {
      writer.AddRadio(cap.headers[r]);
      const std::int64_t zero = cap.headers[r].ntp_utc_of_local_zero_us;
      for (const jig::CaptureRecord& rec : cap.records[r]) {
        if (zero + rec.timestamp >= cut) break;
        writer.Append(r, rec);
        ++partial_records;
      }
    }
    writer.FinalizeAll();
  }
  const MonitorRun run = DriveMonitor(
      MonitorConfig(traces, state0, /*threads=*/1, /*analysis=*/false,
                    cap.headers.size()),
      DriveOptions{});
  const double setup_s = NowS() - t0;
  if (!run.error.empty()) {
    std::fprintf(stderr, "restart setup: %s\n", run.error.c_str());
    return 1;
  }

  const fs::path cache = a.Str("ref-cache", "");
  const Reference ref =
      !cache.empty() && fs::exists(cache)
          ? LoadReference(cache)
          : ComputeReference(traces,
                             static_cast<std::int64_t>(
                                 fraction * static_cast<double>(capture_us)));
  SaveReference(dir / "ref.bin", ref);
  if (!cache.empty() && !fs::exists(cache)) {
    fs::path tmp = cache;
    tmp += ".tmp";
    fs::copy_file(dir / "ref.bin", tmp, fs::copy_options::overwrite_existing);
    fs::rename(tmp, cache);
  }
  const std::string bad =
      CheckPrefix(HashOutputLog(state0), ref.hashes, ref.hashes.size());
  if (!bad.empty()) {
    std::fprintf(stderr, "restart setup: pre-stop log: %s\n", bad.c_str());
    return 1;
  }
  std::ofstream(dir / "point.txt")
      << fs::absolute(dir / "ref.bin").string() << ' ' << run.persisted << ' '
      << partial_records << ' ' << static_cast<double>(ref.capture_us) * 1e-6
      << '\n';
  std::printf("restart point %s: %" PRIu64 " jframes durable, %" PRIu64
              " records\n",
              dir.filename().string().c_str(), run.persisted,
              partial_records);
  JsonLine().Num("setup_s", setup_s).Print();
  return 0;
}

Rep RunRestartRep(const RestartPoint& point, const Reference& ref,
                  ReadProbe* probe) {
  const fs::path state = point.dir / "state";
  fs::remove_all(state);
  fs::copy(point.dir / "state0", state, fs::copy_options::recursive);
  Rep rep;
  DriveOptions opt;
  opt.stop = StopWhen::kCaughtUp;
  opt.catch_up = point.durable;
  opt.timeout_s = 120.0;
  opt.probe = probe;
  const double c0 = ProcessCpuS();
  rep.run = DriveMonitor(MonitorConfig(point.dir / "traces", state,
                                       /*threads=*/1, /*analysis=*/false,
                                       ref.radios),
                         opt);
  rep.cpu_s = ProcessCpuS() - c0;
  rep.error = rep.run.error;
  rep.input_records = point.partial_records;
  rep.input_capture_s = point.partial_capture_s;
  rep.wall_s = rep.run.end_s - rep.run.begin_s;
  rep.catch_up_s = rep.wall_s;
  rep.lag_ms = LagFromOpenMs(rep.run, /*recovered=*/true);
  // The frontier was on disk before the monitor opened.
  rep.origin_s = rep.run.begin_s;
  rep.publish_s = {0.0};
  if (rep.error.empty() && (rep.run.recovered != point.durable ||
                            rep.run.persisted != point.durable)) {
    rep.error = "recovered " + std::to_string(rep.run.recovered) +
                " and persisted " + std::to_string(rep.run.persisted) +
                " jframes, expected " + std::to_string(point.durable);
  }
  Verify(state, ref, point.durable, probe != nullptr, rep);
  return rep;
}

int CmdRestart(const Args& a) {
  std::vector<RestartPoint> points;
  std::vector<Reference> refs;
  for (const std::string& dir : a.List("points")) {
    points.push_back(LoadPoint(dir));
    refs.push_back(LoadReference(points.back().ref));
  }
  const std::string trace_out = a.Str("trace-out", "");

  if (!trace_out.empty()) {
    std::vector<Rep> untraced, traced;
    std::vector<std::unique_ptr<ReadProbe>> probes;
    for (int i = 0; i < 2; ++i) {
      untraced.push_back(RunRestartRep(points[0], refs[0], nullptr));
      probes.push_back(std::make_unique<ReadProbe>());
      traced.push_back(
          RunRestartRep(points[0], refs[0], probes.back().get()));
    }
    TracedInputs t;
    t.workload = "restart";
    t.untraced = &untraced;
    t.traced = &traced;
    t.probe = probes.back().get();
    t.input_records = static_cast<std::uint64_t>(points[0].partial_records);
    t.layers = {points[0].dir / "traces", 1, &traced.back().jframes,
                points[0].dir / "state" / "checkpoint.jigc", points[0].dir};
    t.analysis = false;
    t.trace_out = trace_out;
    return ReportTraced(t);
  }
  const std::vector<Rep> reps =
      Repeat(a.Num("seconds", 10), points.size(), [&](std::size_t p) {
        return RunRestartRep(points[p], refs[p], nullptr);
      });
  return ReportUntraced(reps, points.size(), a.Num("setup-s", 0),
                        PeakRssMiB());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench sim|batch-setup|batch|live|restart-setup|"
                 "restart --key value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv);
    if (cmd == "sim") return CmdSim(args);
    if (cmd == "batch-setup") return CmdBatchSetup(args);
    if (cmd == "batch") return CmdBatch(args);
    if (cmd == "live") return CmdLive(args);
    if (cmd == "restart-setup") return CmdRestartSetup(args);
    if (cmd == "restart") return CmdRestart(args);
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
