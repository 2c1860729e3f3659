#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

// Spans recorded by the benchmark around its calls into floq's layers.
// Spans live in memory and are written out once, after the run.
//
// Attribution: a span's self time is its duration minus the durations of
// its child spans, a layer's self time is the sum over its spans, and
// `unattributed` is the trace wall time minus the root spans' durations.
// Self times plus unattributed therefore sum to the wall time exactly.
//
// Where a layer reports its own stage times (BatchStats, ContainmentResult)
// or a stage can only be observed by replaying it on a shadow object, the
// benchmark adds a "measured" child span of the reported duration. Shadow
// replays run while the trace clock is paused, so they never count towards
// the wall time they are attributing.

namespace perfbench {

enum class Layer : uint8_t {
  kFlogic,
  kChase,
  kSignature,
  kEngine,
  kHom,
  kIndex,
  kWal,
  kRegistry,
  kProtocol,
  kDaemon,
};
inline constexpr size_t kLayerCount = 10;

/// The repository module name of `layer` ("containment.signature", ...).
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kEngine;
  double start_ms = 0.0;
  double dur_ms = 0.0;
  int32_t parent = -1;
  uint32_t op = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; its clock still runs, so the same
  /// replay code measures the untraced wall time.
  explicit Tracer(bool enabled);

  /// Trace clock in ms: the steady clock minus every paused interval.
  double Now() const;
  void Pause();
  void Resume();

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// disabled).
  int32_t Begin(const char* name, Layer layer, uint32_t op);
  void End(int32_t id);
  /// Records a child of `parent` whose duration was reported by the layer
  /// or measured by a paused shadow replay; returns its id (-1 when
  /// disabled) so it can parent further measured spans.
  int32_t AddMeasured(int32_t parent, const char* name, Layer layer,
                      double dur_ms);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  double paused_ms_ = 0.0;
  double pause_start_ = -1.0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer, uint32_t op)
      : tracer_(tracer), id_(tracer.Begin(name, layer, op)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Writes `spans` as a JSON array (one object per span, times in us);
/// false on I/O failure.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

struct Attribution {
  std::array<double, kLayerCount> self_ms{};
  double unattributed_ms = 0.0;
  double wall_ms = 0.0;
};
Attribution Attribute(const std::vector<Span>& spans, double wall_ms);
/// Self times plus unattributed equal the wall time (to rounding).
bool SumsToWall(const Attribution& attribution);

/// The engine fan-out residual: CheckAll wall minus the signature stage,
/// the chase stage and the homomorphism busy time spread over `workers`.
double EngineUnattributedMs(double check_all_ms, double signature_ms,
                            double chase_ms, double hom_busy_ms, int workers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
