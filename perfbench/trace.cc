#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "measure.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kFlogic:
      return "flogic";
    case Layer::kChase:
      return "chase";
    case Layer::kSignature:
      return "containment.signature";
    case Layer::kEngine:
      return "containment.engine";
    case Layer::kHom:
      return "containment.hom";
    case Layer::kIndex:
      return "containment.index";
    case Layer::kWal:
      return "server.wal";
    case Layer::kRegistry:
      return "server.registry";
    case Layer::kProtocol:
      return "server.protocol";
    case Layer::kDaemon:
      return "server.daemon";
  }
  return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

double Tracer::Now() const {
  const double now = pause_start_ >= 0 ? pause_start_ : NowMs();
  return now - paused_ms_;
}

void Tracer::Pause() {
  if (pause_start_ < 0) pause_start_ = NowMs();
}

void Tracer::Resume() {
  if (pause_start_ < 0) return;
  paused_ms_ += NowMs() - pause_start_;
  pause_start_ = -1.0;
}

int32_t Tracer::Begin(const char* name, Layer layer, uint32_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ms = Now();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(span);
  open_.push_back(int32_t(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[size_t(id)].dur_ms = Now() - spans_[size_t(id)].start_ms;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t Tracer::AddMeasured(int32_t parent, const char* name, Layer layer,
                            double dur_ms) {
  if (!enabled_ || parent < 0) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ms = spans_[size_t(parent)].start_ms;
  span.dur_ms = dur_ms;
  span.parent = parent;
  span.op = spans_[size_t(parent)].op;
  spans_.push_back(span);
  return int32_t(spans_.size() - 1);
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "[";
  char buffer[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buffer, sizeof buffer, "%.3f,\"dur_us\":%.3f,\"parent\":%d",
                  s.start_ms * 1000.0, s.dur_ms * 1000.0, s.parent);
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"layer\":\"" << LayerName(s.layer)
        << "\",\"op\":" << s.op << ",\"start_us\":" << buffer << "}";
  }
  out << "\n]\n";
  out.close();
  return bool(out);
}

Attribution Attribute(const std::vector<Span>& spans, double wall_ms) {
  Attribution a;
  a.wall_ms = wall_ms;
  double roots_ms = 0.0;
  for (const Span& s : spans) {
    a.self_ms[size_t(s.layer)] += s.dur_ms;
    if (s.parent < 0) {
      roots_ms += s.dur_ms;
    } else {
      a.self_ms[size_t(spans[size_t(s.parent)].layer)] -= s.dur_ms;
    }
  }
  a.unattributed_ms = wall_ms - roots_ms;
  return a;
}

bool SumsToWall(const Attribution& a) {
  double sum = a.unattributed_ms;
  for (double ms : a.self_ms) sum += ms;
  return std::fabs(sum - a.wall_ms) <= 1e-6 * std::max(1.0, a.wall_ms);
}

double EngineUnattributedMs(double check_all_ms, double signature_ms,
                            double chase_ms, double hom_busy_ms, int workers) {
  return check_all_ms - signature_ms - chase_ms -
         hom_busy_ms / double(workers < 1 ? 1 : workers);
}

}  // namespace perfbench
