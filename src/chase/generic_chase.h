#ifndef FLOQ_CHASE_GENERIC_CHASE_H_
#define FLOQ_CHASE_GENERIC_CHASE_H_

#include <vector>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "query/conjunctive_query.h"
#include "term/world.h"

// The restricted chase for *arbitrary* user dependency sets (TGDs with
// existential heads + EGDs), generalizing the Sigma_FL-specialized engine
// of chase.h. Combined with the weak-acyclicity test of dependencies.h
// this realizes the paper's future-work direction: for any weakly acyclic
// set the chase terminates, so the Theorem-4 containment criterion is a
// complete decision procedure for that class.
//
// Differences from the Sigma_FL engine (chase.h):
//   * no Sigma_FL^- "everything at level 0" phase — levels count from the
//     initial conjuncts uniformly;
//   * ChaseNodeMeta::rule is RuleId(1000 + i) for tgds[i] (and kRho0 for
//     initial conjuncts); cross-arcs are not recorded.

namespace floq {

/// Chases body(query) under `dependencies`. The query's variables are
/// treated as values, as in ChaseQuery.
ChaseResult GenericChase(World& world, const ConjunctiveQuery& query,
                         const DependencySet& dependencies,
                         const ChaseOptions& options = {});

/// Chases a plain set of atoms (e.g. a ground database).
ChaseResult GenericChaseFacts(World& world, const std::vector<Atom>& facts,
                              const DependencySet& dependencies,
                              const ChaseOptions& options = {});

}  // namespace floq

#endif  // FLOQ_CHASE_GENERIC_CHASE_H_
