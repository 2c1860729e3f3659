#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "server/protocol.h"

// Measurement helpers shared by the workloads: latency summaries, reply
// classification and the process memory probe.

namespace perfbench {

/// Milliseconds on the steady clock.
double NowMs();

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that leaves at
/// least ten of `n` samples strictly above its nearest-rank position, or 0
/// when even the median does not (n < 20).
double TailPercentile(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  /// The tail value at `tail_pct` (TailPercentile(n)); 0 when tail_pct is.
  double tail = 0.0;
  double tail_pct = 0.0;
};
Summary Summarize(std::vector<double> samples);

/// Median of `values` (0 for none).
double Median(std::vector<double> values);

/// How a daemon reply counts. Only kOk is a success: OVERLOADED sheds and
/// UNKNOWN verdicts are failures, like any other error reply.
enum class ReplyKind { kOk, kOverloaded, kUnknown, kError };
ReplyKind ClassifyReply(const floq::server::Json& reply);

/// Peak resident set (VmHWM) of process `pid` in MB, or of this process
/// when pid is 0; 0 when /proc cannot be read.
double PeakRssMb(int pid = 0);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
