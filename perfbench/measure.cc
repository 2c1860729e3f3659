#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Nearest rank: the ceil(pct/100 * n)-th smallest sample (1-based).
size_t NearestRank(size_t n, double pct) {
  size_t rank = size_t(std::ceil(pct / 100.0 * double(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Nearest-rank percentile of ascending `sorted` (pct in (0, 100]).
double PercentileOf(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), pct) - 1];
}

}  // namespace

double TailPercentile(size_t n) {
  for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (n > 0 && n - NearestRank(n, pct) >= 10) return pct;
  }
  return 0.0;
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = PercentileOf(samples, 50.0);
  s.tail_pct = TailPercentile(s.n);
  if (s.tail_pct > 0) s.tail = PercentileOf(samples, s.tail_pct);
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileOf(values, 50.0);
}

ReplyKind ClassifyReply(const floq::server::Json& reply) {
  const floq::server::Json* ok = reply.Find("ok");
  if (ok == nullptr || ok->type() != floq::server::Json::Type::kBool ||
      !ok->AsBool()) {
    const floq::server::Json* code = reply.Find("code");
    if (code != nullptr && code->is_string()) {
      if (code->AsString() == "OVERLOADED") return ReplyKind::kOverloaded;
      if (code->AsString() == "UNKNOWN") return ReplyKind::kUnknown;
    }
    return ReplyKind::kError;
  }
  const floq::server::Json* resolution = reply.Find("resolution");
  if (resolution != nullptr && resolution->is_string() &&
      resolution->AsString() == "UNKNOWN") {
    return ReplyKind::kUnknown;
  }
  return ReplyKind::kOk;
}

double PeakRssMb(int pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
