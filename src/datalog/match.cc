#include "datalog/match.h"

#include "datalog/compiled_pattern.h"
#include "util/metrics.h"

namespace floq {

namespace {

// Folds the search effort of one MatchConjunction call into the registry.
// The counters mirror MatchStats field for field so --metrics-out exposes
// the same series bench_hom_search reports. Called only when metrics are
// enabled; the instruments are cached in statics after the first call.
void FoldMatchMetrics(const MatchStats& before, const MatchStats& after) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  static Counter& kernel_dispatch = registry.counter("match.kernel_dispatch");
  static Counter& nodes = registry.counter("hom.nodes_visited");
  static Counter& matches = registry.counter("hom.matches_found");
  static Counter& probes = registry.counter("hom.index_probes");
  static Counter& intersections = registry.counter("hom.intersect_nodes");
  static Counter& gallops = registry.counter("hom.gallop_skips");
  static Counter& rejects = registry.counter("hom.reject_prepass_hits");
  kernel_dispatch.Add(1);
  auto fold = [](Counter& c, uint64_t b, uint64_t a) {
    if (a > b) c.Add(a - b);
  };
  fold(nodes, before.nodes_visited, after.nodes_visited);
  fold(matches, before.matches_found, after.matches_found);
  fold(probes, before.index_probes, after.index_probes);
  fold(intersections, before.intersect_nodes, after.intersect_nodes);
  fold(gallops, before.gallop_skips, after.gallop_skips);
  fold(rejects, before.reject_prepass_hits, after.reject_prepass_hits);
}

}  // namespace

bool MatchConjunction(std::span<const Atom> pattern, const FactIndex& index,
                      const Substitution& initial,
                      FunctionRef<bool(const Substitution&)> on_match,
                      MatchStats* stats, ExecGovernor* governor) {
  // With metrics on, effort is folded into the registry once per call —
  // never per node. A caller-provided MatchStats is snapshotted so only
  // this call's delta lands; callers without one get a local stand-in.
  const bool metrics = MetricsRegistry::enabled();
  MatchStats local;
  MatchStats* effective = stats;
  if (metrics && effective == nullptr) effective = &local;
  const MatchStats before = effective != nullptr ? *effective : MatchStats{};

  const bool complete =
      MatchCompiled(pattern, index, initial, on_match, effective, governor);
  if (metrics) FoldMatchMetrics(before, *effective);
  return complete;
}

bool FindFirstMatch(std::span<const Atom> pattern, const FactIndex& index,
                    const Substitution& initial, Substitution* out,
                    MatchStats* stats) {
  bool found = false;
  MatchConjunction(
      pattern, index, initial,
      [&](const Substitution& match) {
        found = true;
        if (out != nullptr) *out = match;
        return false;  // stop at the first match
      },
      stats);
  return found;
}

}  // namespace floq
