// Exposition writers for MetricsSnapshot: Prometheus text format 0.0.4 and
// a JSON mirror of the same data.
//
// Both render the aggregated snapshot, never the live registry — take the
// snapshot once (MetricRegistry::Collect or MergeSession::MetricsSnapshot)
// and hand it to whichever writers you need; the two expositions of one
// snapshot are guaranteed to agree.
//
//   * ToPrometheusText — what `jigtool stats` prints, every interval
//     while tailing and once at the end: HELP/TYPE comment lines, cumulative
//     histogram buckets with le="..." labels and a +Inf terminal bucket,
//     _sum/_count series.  Scrapeable as-is.
//   * ToJson — what `jigtool merge --stats-json` writes: one object with
//     "counters" / "gauges" / "histograms" maps keyed by metric name
//     (labels folded into the key as name{label}).  Histogram buckets stay
//     non-cumulative in JSON ("counts" per bucket edge) because tooling
//     diffing two snapshots wants subtractable values.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace jig::obs {

std::string ToPrometheusText(const MetricsSnapshot& snapshot);

std::string ToJson(const MetricsSnapshot& snapshot);

// Writes `content` to `path` via a temp file + rename, so a concurrent
// reader (a scrape cron, `watch cat`) never sees a torn exposition.
// Throws std::runtime_error on IO failure.
void WriteFileAtomic(const std::filesystem::path& path,
                     std::string_view content);

}  // namespace jig::obs
