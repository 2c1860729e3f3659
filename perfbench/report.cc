#include <cstdio>

#include "measure.h"
#include "workloads.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  ++failed;
  if (correct) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", why.c_str());
  }
  correct = false;
}

void SetAttribution(Report& report, const Tracer& tracer, double wall_ms,
                    double untraced_wall_ms) {
  const Attribution a = Attribute(tracer.spans(), wall_ms);
  if (!SumsToWall(a)) report.Fail("layer self times do not sum to wall");
  report.Set("trace.wall_ms", wall_ms, "ms");
  report.Set("trace.unattributed_ms", a.unattributed_ms, "ms");
  for (size_t i = 0; i < kLayerCount; ++i) {
    report.Set(std::string("self.") + LayerName(Layer(i)) + "_ms",
               a.self_ms[i], "ms");
  }
  report.Set("trace.overhead_ratio", wall_ms / untraced_wall_ms, "ratio",
             "traced " + std::to_string(wall_ms) + " ms / untraced " +
                 std::to_string(untraced_wall_ms) + " ms");
}

void SetLatency(Report& report, const std::string& p50_name,
                const std::string& tail_name,
                const std::vector<double>& samples, double scale,
                const std::string& unit) {
  const Summary s = Summarize(samples);
  report.Set(p50_name, s.p50 * scale, unit, "n=" + std::to_string(s.n));
  char note[64];
  std::snprintf(note, sizeof note, "p%g, n=%zu", s.tail_pct, s.n);
  report.Set(tail_name, s.tail * scale, unit,
             s.tail_pct > 0 ? note : "fewer than 20 samples");
}

}  // namespace perfbench
