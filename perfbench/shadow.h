#ifndef PERFBENCH_SHADOW_H_
#define PERFBENCH_SHADOW_H_

#include <string>
#include <vector>

#include "containment/index.h"
#include "generate.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/wal.h"
#include "term/world.h"
#include "trace.h"
#include "workloads.h"

// A shadow of the registry's internals, driven through the same public
// layer functions QueryRegistry::Register and Unregister call (parse, WAL
// append, index insert, TaxonomyOf). Its timings, taken while the trace
// clock is paused, attribute the time of each Register/Unregister span to
// those layers; what remains is the registry's own work (snapshot publish,
// cadence checkpoints).

namespace perfbench {

/// What `floq serve` runs its registry with by default: jobs = 1 inserts
/// and a checkpoint every 32 mutations.
floq::server::RegistryOptions DaemonRegistryOptions(const std::string& dir);

class Shadow {
 public:
  /// Keeps its WAL at `wal_path`.
  explicit Shadow(const std::string& wal_path);
  Shadow(const Shadow&) = delete;
  Shadow& operator=(const Shadow&) = delete;

  /// Replays the registry's work for registering `q`, as measured children
  /// of span `parent`; appends the two parse times to `parse_us`.
  void Register(Tracer& tracer, int32_t parent, const NamedQuery& q,
                std::vector<double>& parse_us);
  /// Replays unregistering the live entry at `position` (registration
  /// order) named `name`.
  void Unregister(Tracer& tracer, int32_t parent, const std::string& name,
                  size_t position);
  /// Starts the totals and stage counters from zero (after a warm-up).
  void StartMeasuring();

  /// Per-layer metrics of the replayed registry work: index insert and
  /// TaxonomyOf, WAL appends, the signature prefilter, the engine's chase
  /// and hom stages inside the inserts, and the registry's residual (the
  /// self time of the Register spans in `tracer`).
  void SetMetrics(Report& report, const Tracer& tracer) const;

 private:
  void Append(Tracer& tracer, int32_t parent,
              const floq::server::Json& record);
  void Taxonomy(Tracer& tracer, int32_t parent);

  floq::World world_;
  floq::ContainmentIndex index_;
  floq::server::Wal wal_;
  std::vector<size_t> live_;
  double insert_ms_ = 0.0;
  double signature_ms_ = 0.0;
  double append_ms_ = 0.0;
  double taxonomy_ms_ = 0.0;
  floq::IndexStats index_base_;
  floq::BatchStats engine_base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHADOW_H_
