#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

// The three workloads, each in an untraced form (end-to-end metrics
// through floq's public entry points: ClassifyQueries in-process, or the
// `floq serve` child process over its socket) and a traced form (the same
// generated operations replayed in-process with spans around each layer
// call, for the per-layer metrics).

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Absolute path of the built `floq` CLI.
  std::string floq_binary;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Printed after the value, e.g. the tail percentile and sample count.
  std::string note;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every metric the run measured, printed by name and unit.
  std::map<std::string, Metric> metrics;
  /// Spans of a traced run, written out after the run.
  std::vector<Span> spans;

  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics[name] = Metric{value, unit, note};
  }
  /// Counts a failed operation (error reply, OVERLOADED, UNKNOWN or a
  /// wrong answer); any failure makes the run incorrect.
  void Fail(const std::string& why);
};

/// Per-layer metrics shared by every traced run: the trace wall time, each
/// layer's self time, the unattributed residual, and the tracing overhead
/// (traced over untraced wall of the same replay). Fails the report if the
/// attribution does not sum to the wall time.
void SetAttribution(Report& report, const Tracer& tracer, double wall_ms,
                    double untraced_wall_ms);

/// Records the median of `samples` (multiplied by `scale`) as `p50_name`
/// and its tail as `tail_name`, with the tail percentile and sample count
/// in the note.
void SetLatency(Report& report, const std::string& p50_name,
                const std::string& tail_name,
                const std::vector<double>& samples, double scale,
                const std::string& unit);

Report RunClassify(const RunOptions& options);
Report TraceClassify(const RunOptions& options);
Report RunGrowth(const RunOptions& options);
Report TraceGrowth(const RunOptions& options);
Report RunMixed(const RunOptions& options);
Report TraceMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
