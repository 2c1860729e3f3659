#ifndef FLOQ_CONTAINMENT_HOMOMORPHISM_H_
#define FLOQ_CONTAINMENT_HOMOMORPHISM_H_

#include <optional>
#include <vector>

#include "datalog/fact_index.h"
#include "datalog/match.h"
#include "query/conjunctive_query.h"
#include "term/substitution.h"

// Query homomorphisms (Definition 1 + Theorem 4 side conditions): a
// mapping of the query's variables (constants map to themselves) that
// sends every body atom into the target conjunct set and the head tuple
// onto a required target tuple.

namespace floq {

/// Searches for a homomorphism that maps body(query) into `target` and
/// head(query) position-wise onto `target_head`. Returns the homomorphism
/// or nullopt. `target_head` must have the query's arity. `governor`, when
/// non-null, bounds the search as in MatchConjunction.
std::optional<Substitution> FindQueryHomomorphism(
    const ConjunctiveQuery& query, const FactIndex& target,
    const std::vector<Term>& target_head, MatchStats* stats = nullptr,
    ExecGovernor* governor = nullptr);

/// Checks whether `candidate` is a valid homomorphism for the same
/// request (used by tests to validate witnesses).
bool IsQueryHomomorphism(const ConjunctiveQuery& query,
                         const FactIndex& target,
                         const std::vector<Term>& target_head,
                         const Substitution& candidate);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_HOMOMORPHISM_H_
