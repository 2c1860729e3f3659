#include "containment/homomorphism.h"

#include "util/check.h"

namespace floq {

namespace {

// Seeds the substitution with the head constraint: head(query)[i] must map
// to target_head[i]. Returns false if impossible (a head constant differs
// from the target, or one variable would need two images).
bool SeedFromHead(const ConjunctiveQuery& query,
                  const std::vector<Term>& target_head, Substitution& seed) {
  FLOQ_CHECK_EQ(target_head.size(), size_t(query.arity()));
  for (int i = 0; i < query.arity(); ++i) {
    Term from = query.head()[i];
    Term to = target_head[i];
    if (from.IsVariable()) {
      if (!seed.TryBind(from, to)) return false;
    } else if (from != to) {
      // Constants (and nulls) map to themselves.
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<Substitution> FindQueryHomomorphism(
    const ConjunctiveQuery& query, const FactIndex& target,
    const std::vector<Term>& target_head, MatchStats* stats,
    ExecGovernor* governor) {
  Substitution seed;
  if (!SeedFromHead(query, target_head, seed)) return std::nullopt;
  std::optional<Substitution> found;
  MatchConjunction(
      query.body(), target, seed,
      [&](const Substitution& match) {
        found = match;
        return false;  // first match suffices
      },
      stats, governor);
  return found;
}

bool IsQueryHomomorphism(const ConjunctiveQuery& query,
                         const FactIndex& target,
                         const std::vector<Term>& target_head,
                         const Substitution& candidate) {
  if (target_head.size() != size_t(query.arity())) return false;
  for (int i = 0; i < query.arity(); ++i) {
    if (candidate.Apply(query.head()[i]) != target_head[i]) return false;
  }
  for (const Atom& atom : query.body()) {
    if (!target.Contains(candidate.Apply(atom))) return false;
  }
  // Constants must map to themselves.
  for (const auto& [from, to] : candidate.entries()) {
    if (!from.IsVariable() && from != to) return false;
  }
  return true;
}

}  // namespace floq
