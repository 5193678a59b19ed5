// The traced run's outside-in layer measurements: spans kept in memory and
// written once at the end, and standalone calls into each layer's public
// entry points over the workload's own inputs.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the log; -1 = root
  std::vector<std::pair<std::string, double>> attrs;
};

class SpanLog {
 public:
  int Add(std::string name, double start_s, double end_s, int parent = -1);
  void Attr(int id, std::string key, double value);
  void End(int id, double end_s);
  const std::vector<Span>& spans() const { return spans_; }
  // JSON array, times in seconds relative to `origin_s`.
  std::string ToJson(double origin_s) const;

 private:
  std::vector<Span> spans_;
};

using Metrics = std::map<std::string, double>;

// What the standalone layer calls run over: the workload's input capture
// at the workload's merge thread count, and the verified output of its
// traced monitor run.
struct LayerInputs {
  fs::path traces;
  unsigned threads = 1;
  const std::vector<jig::JFrame>* jframes = nullptr;
  fs::path checkpoint;  // the traced run's checkpoint.jigc
  fs::path scratch;     // writable, private
};

// Times every layer standalone; each call becomes a span under `parent`.
// Fills trace.scan_s, bootstrap.fit_s, pipeline.{merge_s, read_s, self_s,
// cpu_per_wall}, analysis.{bus_s, link_s, interference_s, tcp_loss_s},
// log.{append_s, bytes_per_jframe} and checkpoint.save_s.
Metrics MeasureLayers(const LayerInputs& in, SpanLog& spans, int parent);

}  // namespace perfbench
