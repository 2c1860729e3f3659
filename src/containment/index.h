#ifndef FLOQ_CONTAINMENT_INDEX_H_
#define FLOQ_CONTAINMENT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// The containment index: an incrementally maintained containment preorder
// over a growing query registry. Where ClassifyQueries answers the full
// N^2 matrix in one batch, the index supports classify-on-insert: each
// Insert places the new query into the existing lattice by checking it
// against *only the candidate pairs that survive the signature prefilter*
// (signature.h) — for a typical registry the filter discharges the
// overwhelming majority of the 2·N candidate pairs before the engine ever
// sees them, so an insert costs a handful of chase/hom decisions instead
// of 2·N.
//
// Soundness: a discharged pair is a definite kNotContained (the subset
// test is a necessary condition of containment, see signature.h), so the
// maintained matrix is exactly what a full batch over the same options
// would produce — the differential suite in tests/containment_index_test.cc
// asserts this pair-for-pair.

namespace floq {

/// Cumulative accounting across all Inserts.
struct IndexStats {
  uint64_t inserts = 0;
  /// Ordered same-arity candidate pairs considered ((id, j) and (j, id)
  /// per existing entry j).
  uint64_t candidate_pairs = 0;
  /// Candidates discharged by the signature prefilter before reaching the
  /// engine (definite kNotContained).
  uint64_t pruned_pairs = 0;
  /// Candidates that survived and ran the full chase + hom pipeline.
  uint64_t checked_pairs = 0;
  /// Checked pairs whose verdict degraded to Resolution::kUnknown.
  uint64_t unknown_pairs = 0;
};

class ContainmentIndex {
 public:
  explicit ContainmentIndex(World& world,
                            const BatchContainmentOptions& options = {});

  ContainmentIndex(const ContainmentIndex&) = delete;
  ContainmentIndex& operator=(const ContainmentIndex&) = delete;

  /// Registers `query`, decides its containment relation to every query
  /// already in the index (both directions), and returns its dense id.
  /// Cross-arity pairs are recorded kNotContained without any check —
  /// containment only relates queries of equal arity.
  Result<size_t> Insert(const ConjunctiveQuery& query);

  size_t size() const { return engine_.query_count(); }
  const ConjunctiveQuery& query(size_t id) const { return engine_.query(id); }

  /// The maintained verdict for query(lhs) ⊆_Sigma query(rhs). The
  /// diagonal is kContained (containment is reflexive).
  Resolution ResolutionOf(size_t lhs, size_t rhs) const;
  bool Contains(size_t lhs, size_t rhs) const {
    return ResolutionOf(lhs, rhs) == Resolution::kContained;
  }

  /// The taxonomy of everything inserted so far (equivalence classes,
  /// Hasse diagram), built from the maintained matrix without any further
  /// containment checks.
  QueryTaxonomy Taxonomy() const;

  /// Taxonomy restricted to `ids` (distinct dense ids in any order;
  /// `class_of` and `classes` index into `ids` positionally). Lets a
  /// caller that tombstones entries — the serve registry, where unregister
  /// removes a query from the live set but not from the engine — classify
  /// just the live subset from the maintained matrix, again with no new
  /// checks. Costs a scan of the selected rows, not an |ids|^2 matrix.
  QueryTaxonomy TaxonomyOf(std::span<const size_t> ids) const;

  const IndexStats& index_stats() const { return stats_; }
  /// The underlying engine's cache/fan-out stats (chases run, cache hits,
  /// in-engine pruning of pairs the prefilter let through).
  const BatchStats& engine_stats() const { return engine_.stats(); }
  ContainmentEngine& engine() { return engine_; }

 private:
  ContainmentEngine engine_;
  // resolution_[lhs][rhs]; rows grow with each Insert.
  std::vector<std::vector<Resolution>> resolution_;
  IndexStats stats_;
};

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_INDEX_H_
