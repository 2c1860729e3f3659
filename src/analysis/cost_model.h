#ifndef FLOQ_ANALYSIS_COST_MODEL_H_
#define FLOQ_ANALYSIS_COST_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/boundedness.h"
#include "analysis/diagnostic.h"
#include "chase/chase.h"
#include "datalog/fact_index.h"
#include "query/conjunctive_query.h"
#include "term/world.h"

// Static cost prediction for containment checks (DESIGN.md §15). A check
// q1 ⊆_Sigma q2 has two priced stages — materializing chase_Sigma(q1) to
// the Theorem-12 level and searching for a homomorphism body(q2) ->
// chase(q1) — and this model predicts both *before* running them, from
// (a) a geometric fit of the registration probe chase's level counts and
// (b) a join-shape walk of q2's body against the probe's per-position
// posting statistics (FactIndex stat accessors).
//
// Soundness discipline: every number here is either a sound upper bound
// (a completed probe makes AtomsAtLevel exact — the chase reached its
// fixpoint, deeper levels add nothing) or an explicitly confidence-tagged
// extrapolation (geometric growth continued past the probe horizon). The
// consumers are analysis only — the FLD201–203 lints and `floq analyze` —
// so an estimate never touches a verdict: the containment engine does not
// read it.

namespace floq::analysis {

/// Geometric growth model fitted from a probe chase prefix: total
/// conjunct counts per level, extrapolated as probe_atoms * per_level^k
/// past the probe horizon.
struct ChaseGrowthModel {
  /// rho_4 equated two distinct constants: the chase fails, every pair
  /// with this query on the left is decided with zero further work.
  bool failed = false;
  /// The probe reached the chase fixpoint: AtomsAtLevel is exact at every
  /// level and confidence is 1.
  bool completed = false;
  int probe_level = 0;
  /// Total conjuncts at level 0 / at probe_level.
  uint64_t level0_atoms = 0;
  uint64_t probe_atoms = 0;
  /// Per-level multiplicative growth observed across the last probe level
  /// (1.0 when the frontier went quiet).
  double per_level = 1.0;

  /// Estimated total conjuncts once materialized to `level`, saturated at
  /// `cap` (the engine's chase atom budget stops materialization there
  /// anyway).
  uint64_t AtomsAtLevel(int level, uint64_t cap) const;

  /// 1.0 when exact (completed probe, or no extrapolation needed); decays
  /// with the number of extrapolated levels when the probe was still
  /// growing.
  double ConfidenceAtLevel(int level) const;
};

/// Fits the model from a materialized probe prefix (any ResumableChase /
/// ChaseQuery result; deeper probes give tighter fits).
ChaseGrowthModel FitChaseGrowth(const ChaseResult& probe);

/// Target-side statistics of one query: its growth model plus the probe
/// index's posting-list shape, summarized so the per-pair estimator never
/// touches the (mutable, later re-frozen) index again.
struct TargetProfile {
  ChaseGrowthModel growth;
  /// Probe posting-list length per predicate (FactIndex::CountWithPredicate).
  std::unordered_map<PredicateId, uint32_t> predicate_counts;
  /// Distinct terms per (pred << 4 | position)
  /// (FactIndex::DistinctArgumentValues).
  std::unordered_map<uint64_t, uint32_t> position_distinct;
  /// Posting length per (pred << 36 | position << 32 | term.raw()) for
  /// constant terms (FactIndex::CountWithArgument) — constant selectivity.
  std::unordered_map<uint64_t, uint32_t> constant_counts;

  uint32_t PredicateCount(PredicateId pred) const {
    auto it = predicate_counts.find(pred);
    return it == predicate_counts.end() ? 0 : it->second;
  }
  uint32_t DistinctAt(PredicateId pred, int position) const {
    auto it = position_distinct.find((uint64_t(pred) << 4) | uint64_t(position));
    return it == position_distinct.end() ? 0 : it->second;
  }
  uint32_t ConstantCount(PredicateId pred, int position, Term value) const {
    auto it = constant_counts.find((uint64_t(pred) << 36) |
                                   (uint64_t(position) << 32) |
                                   uint64_t(value.raw()));
    return it == constant_counts.end() ? 0 : it->second;
  }
};

/// Profiles a probe chase (a level-bounded ChaseQuery or ResumableChase
/// prefix).
TargetProfile ProfileTarget(const ChaseResult& probe);

/// Pattern-side join shape of one query used as a right-hand side: its
/// body atoms plus the variable-connectivity component count (components
/// multiply the hom fan-out — each is matched independently).
struct PatternProfile {
  std::vector<Atom> atoms;
  int join_components = 0;
};

PatternProfile ProfilePattern(const ConjunctiveQuery& query);

/// The predicted price of one containment check.
struct CostEstimate {
  /// Estimated chase conjuncts at chase_levels_bound (exact when
  /// confidence == 1).
  uint64_t chase_atoms_bound = 0;
  /// The level the estimate targets (the pair's Theorem-12 bound).
  int chase_levels_bound = 0;
  /// Estimated homomorphism-search nodes: partial assignments probed by a
  /// most-constrained-first search, from posting-derived per-atom
  /// candidate counts.
  double hom_fanout_bound = 0.0;
  /// 1.0 when chase_atoms_bound is exact; decays with extrapolation
  /// distance past the probe horizon.
  double confidence = 1.0;

  /// Scalar ranking cost (chase conjuncts + hom nodes, both roughly
  /// "operations"). Order-preserving in either component; the absolute
  /// value has no unit.
  double Scalar() const {
    return double(chase_atoms_bound) + hom_fanout_bound;
  }
};

/// Predicts the price of checking target ⊆ pattern at `level` under a
/// chase atom budget of `atom_cap`.
CostEstimate EstimatePairCost(const TargetProfile& target,
                              const PatternProfile& pattern, int level,
                              uint64_t atom_cap);

/// FLD201: the dependency set is weakly acyclic but its null generation
/// is polynomial of degree >= 2 — the chase terminates yet can blow up
/// polynomially, with the witness special-edge chain attached.
std::vector<Diagnostic> LintDependencyCost(const DependencySet& dependencies,
                                           const World& world);

struct CostAnalysisOptions {
  /// Levels the probe chase materializes before fitting the growth model.
  int probe_levels = 2;
  /// Conjunct cap on the probe itself (keeps `floq analyze` fast even on
  /// divergent inputs).
  uint64_t probe_max_atoms = 200'000;
  /// FLD203 threshold: the default engine chase budget
  /// (ContainmentOptions::max_chase_atoms).
  uint64_t chase_atom_budget = 2'000'000;
};

/// One query's cost report as `floq analyze` prints it: the estimate for
/// the query's own Theorem-12 self-containment level (the representative
/// price of using it in a containment check), its instance-level
/// boundedness grade, and any FLD202/FLD203 findings.
struct QueryCostReport {
  CostEstimate estimate;
  SigmaBoundedness boundedness;
  std::vector<Diagnostic> diagnostics;
};

/// Runs the probe chase, fits the model, and lints. FLD202 fires on a
/// variable-disjoint body (multiplicative cross-join fan-out), FLD203
/// when the estimated chase exceeds options.chase_atom_budget.
QueryCostReport AnalyzeQueryCost(World& world, const ConjunctiveQuery& query,
                                 const CostAnalysisOptions& options = {});

}  // namespace floq::analysis

#endif  // FLOQ_ANALYSIS_COST_MODEL_H_
