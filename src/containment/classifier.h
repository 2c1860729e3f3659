#ifndef FLOQ_CONTAINMENT_CLASSIFIER_H_
#define FLOQ_CONTAINMENT_CLASSIFIER_H_

#include <string>
#include <vector>

#include "containment/containment.h"
#include "containment/engine.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// Query classification under Sigma_FL — the knowledge-representation
// application the paper cites ("in knowledge representation it has been
// widely used ... for object classification, schema integration, service
// discovery", §1). Given a set of queries (views, service descriptions),
// the classifier computes the full containment preorder, collapses it into
// equivalence classes, and exposes the Hasse diagram of the induced
// partial order (most-specific to most-general).

namespace floq {

struct QueryTaxonomy {
  /// One entry per input query: the equivalence class it landed in.
  std::vector<int> class_of;

  /// The classes, each a non-empty list of input indexes; classes are
  /// numbered in input order of their first member.
  std::vector<std::vector<size_t>> classes;

  /// Hasse edges over classes: (sub, super) with sub ⊂ super and no class
  /// strictly between.
  std::vector<std::pair<int, int>> hasse_edges;

  /// Transitively closed strict containment between classes.
  std::vector<std::vector<bool>> contains;  // contains[sub][super]

  /// Number of pairwise containment checks that ran the full chase + hom
  /// pipeline.
  int checks = 0;

  /// Pairwise checks that returned Resolution::kUnknown (a resource
  /// budget tripped). Unknown pairs are treated conservatively as
  /// not-contained when building the preorder — the taxonomy never
  /// *merges* classes on an unproven containment — so a nonzero count
  /// means some edges/classes may be missing, never wrong.
  int unknown_checks = 0;

  /// Pairs discharged as definite kNotContained by the signature
  /// prefilter (signature.h) without running the pipeline. checks +
  /// pruned_checks covers every ordered pair the classification needed.
  int pruned_checks = 0;
};

/// Builds the taxonomy (equivalence classes, strict containment, Hasse
/// diagram) of queries 0..n-1 from their proven containments: `contained`
/// lists the ordered pairs (i, j) with query i ⊆ query j, in any order
/// (duplicates and reflexive pairs are ignored). `checks`,
/// `unknown_checks` and `pruned_checks` seed the counters. The work is
/// proportional to the edges, apart from the m x m `contains` output.
/// Shared by the one-shot classifier below and the incremental
/// ContainmentIndex.
QueryTaxonomy TaxonomyFromEdges(
    size_t n, std::vector<std::pair<size_t, size_t>> contained, int checks,
    int unknown_checks, int pruned_checks);

/// TaxonomyFromEdges over the true cells of a square containment matrix.
QueryTaxonomy TaxonomyFromContainment(
    const std::vector<std::vector<bool>>& contained, int checks,
    int unknown_checks, int pruned_checks);

/// Classifies `queries` under Sigma_FL. The pairwise checks run through a
/// ContainmentEngine: each query is chased once (not once per pair) and
/// the homomorphism searches fan out over `options.jobs` threads. Queries
/// of different arities are never contained in one another; those pairs
/// are not checked and count toward neither `checks` nor `pruned_checks`.
Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const BatchContainmentOptions& options = {});

/// Convenience overload for callers holding plain per-pair options; runs
/// with the default thread count.
Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const ContainmentOptions& options);

/// Renders the taxonomy as an indented forest, most general classes first.
std::string TaxonomyToString(const QueryTaxonomy& taxonomy,
                             const std::vector<ConjunctiveQuery>& queries,
                             const World& world);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_CLASSIFIER_H_
