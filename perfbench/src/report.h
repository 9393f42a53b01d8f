// Turning what a run measured into named metrics, and printing them: one
// human-readable line per metric, a metadata line, and as the last line of
// standard output one JSON object with the keys correct, attempted, failed
// and metrics.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "fleet.h"
#include "obs/metrics.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were added, plus the names of percentiles
/// that lacked kMinSamplesBeyond samples beyond their rank.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit);
  /// The q-percentile of `samples`. Without support the
  /// metric is still computed (end-to-end metrics are always printed) but
  /// its name is listed in unsupported(); with `absent_if_unsupported` it
  /// reads 0 instead, the report's "not measured".
  void AddPercentile(std::string name, const Samples& samples, double q,
                     std::string unit, bool absent_if_unsupported);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& unsupported() const { return unsupported_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> unsupported_;
};

/// Everything a traced run of one workload collected.
struct TracedRun {
  Mode mode = Mode::kBatch;
  Window window;
  std::vector<ClientSpan> client;
  std::vector<RouterSpan> router;
  std::vector<BackendSpan> backend;
  /// Stack counters and the process registry at the window's two ends.
  FleetCounters counters_before, counters_after;
  veritas::MetricsSnapshot metrics_before, metrics_after;
  double untraced_turns_per_s = 0.0;
  double traced_turns_per_s = 0.0;
  /// The single-threaded in-process profile (core and crf layers) and the
  /// registry around it.
  const LocalEndpoint* local = nullptr;
  veritas::MetricsSnapshot local_before, local_after;
};

/// Every per-layer metric, in BENCHMARK.json order. Metrics of a mode the
/// workload does not run (streaming ones on a batch workload and the other
/// way round) read 0.
MetricList LayerMetrics(const TracedRun& run);

/// Peak resident set of this process, in MB (10^6 bytes).
double PeakRssMb();

/// A JSON string literal.
std::string JsonString(const std::string& text);

/// A JSON number with every digit; infinity (a failed request's latency)
/// prints as 1e300 and NaN as 0, since JSON has neither.
std::string JsonNumber(double value);

/// Prints the metric lines, then `meta_json` (an object) on its own line,
/// then the result object as the last line of standard output.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricList& metrics, const std::string& meta_json);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
