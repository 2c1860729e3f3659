#ifndef FLOQ_TESTS_MATCHER_ORACLE_H_
#define FLOQ_TESTS_MATCHER_ORACLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "datalog/fact_index.h"
#include "datalog/match.h"
#include "query/conjunctive_query.h"
#include "term/atom.h"
#include "term/substitution.h"
#include "util/function_ref.h"

// Test-only oracle: the interpreted, map-based backtracking matcher the
// library used before the compiled kernel (DESIGN.md §9). It keeps the
// whole search state in one Substitution and re-probes every candidate
// list at every node — slow, but a direct reading of Definition 1, so the
// kernel's match sets and the engine's verdicts are checked against it
// (kernel_test, extensions_test) and it is the baseline arm of
// bench_hom_search, bench_posting_codec and bench_ablation.
//
// `most_constrained_first` picks the remaining atom with the fewest
// candidates at each node (the order the kernel uses, so the two visit the
// same nodes); false matches atoms left to right, the naive order the
// ablation compares against.

namespace floq {

class MatcherOracle {
 public:
  MatcherOracle(std::span<const Atom> pattern, const FactIndex& index,
                const Substitution& initial,
                FunctionRef<bool(const Substitution&)> on_match,
                MatchStats* stats, bool most_constrained_first)
      : pattern_(pattern),
        index_(index),
        subst_(initial),
        on_match_(on_match),
        stats_(stats),
        most_constrained_first_(most_constrained_first) {
    remaining_.reserve(pattern.size());
    for (uint32_t i = 0; i < pattern.size(); ++i) remaining_.push_back(i);
  }

  /// Returns false iff enumeration was stopped early by the callback.
  bool Run() { return Recurse(); }

 private:
  // Candidate fact ids for pattern atom `p` under the current bindings:
  // the smallest index list over the bound argument positions, or the
  // whole predicate bucket if no argument is bound.
  PostingView Candidates(const Atom& p) const {
    PostingView best = index_.WithPredicate(p.predicate());
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      // Unbound pattern variables constrain nothing; anything else (a
      // constant, a value variable, or a bound pattern variable's image)
      // pins the argument and its index applies.
      const Term* image = subst_.Lookup(arg);
      if (arg.IsVariable() && image == nullptr) continue;
      if (stats_ != nullptr) ++stats_->index_probes;
      const PostingView ids = index_.WithArgument(
          p.predicate(), i, image != nullptr ? *image : arg);
      if (ids.size() < best.size()) best = ids;
    }
    return best;
  }

  bool Recurse() {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    if (remaining_.empty()) {
      if (stats_ != nullptr) ++stats_->matches_found;
      return on_match_(subst_);
    }

    size_t best_slot = 0;
    PostingView best_candidates;
    bool have_best = false;
    if (most_constrained_first_) {
      for (size_t slot = 0; slot < remaining_.size(); ++slot) {
        const PostingView ids = Candidates(pattern_[remaining_[slot]]);
        if (!have_best || ids.size() < best_candidates.size()) {
          best_candidates = ids;
          have_best = true;
          best_slot = slot;
          if (ids.empty()) return true;  // dead end, enumerate siblings
        }
      }
    } else {
      best_candidates = Candidates(pattern_[remaining_[0]]);
    }

    uint32_t atom_index = remaining_[best_slot];
    remaining_.erase(remaining_.begin() + best_slot);
    const Atom& p = pattern_[atom_index];

    bool keep_going = true;
    for (uint32_t fact_id : best_candidates) {
      const Atom& fact = index_.at(fact_id);
      std::vector<Term> bound_here;
      if (TryUnify(p, fact, bound_here)) {
        keep_going = Recurse();
      }
      for (Term var : bound_here) subst_.Erase(var);
      if (!keep_going) break;
    }

    remaining_.insert(remaining_.begin() + best_slot, atom_index);
    return keep_going;
  }

  // Attempts to extend subst_ so that it maps `p` onto `fact`. Newly bound
  // variables are appended to `bound_here` for undo. Only variables
  // occurring syntactically in the pattern are bindable; images that are
  // themselves variables (chase values) are compared, not rebound.
  bool TryUnify(const Atom& p, const Atom& fact,
                std::vector<Term>& bound_here) {
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      const Term* image = subst_.Lookup(arg);
      if (arg.IsVariable() && image == nullptr) {
        subst_.Bind(arg, fact.arg(i));
        bound_here.push_back(arg);
      } else if ((image != nullptr ? *image : arg) != fact.arg(i)) {
        for (Term var : bound_here) subst_.Erase(var);
        bound_here.clear();
        return false;
      }
    }
    return true;
  }

  std::span<const Atom> pattern_;
  const FactIndex& index_;
  Substitution subst_;
  FunctionRef<bool(const Substitution&)> on_match_;
  MatchStats* stats_;
  bool most_constrained_first_;
  std::vector<uint32_t> remaining_;
};

/// MatchConjunction's contract, answered by the oracle.
inline bool OracleMatchConjunction(
    std::span<const Atom> pattern, const FactIndex& index,
    const Substitution& initial,
    FunctionRef<bool(const Substitution&)> on_match,
    MatchStats* stats = nullptr, bool most_constrained_first = true) {
  return MatcherOracle(pattern, index, initial, on_match, stats,
                       most_constrained_first)
      .Run();
}

/// FindQueryHomomorphism's contract, answered by the oracle: body(query)
/// into `target`, head(query) position-wise onto `target_head`.
inline std::optional<Substitution> OracleQueryHomomorphism(
    const ConjunctiveQuery& query, const FactIndex& target,
    const std::vector<Term>& target_head, MatchStats* stats = nullptr,
    bool most_constrained_first = true) {
  Substitution seed;
  for (int i = 0; i < query.arity(); ++i) {
    Term from = query.head()[i];
    Term to = target_head[size_t(i)];
    if (from.IsVariable() ? !seed.TryBind(from, to) : from != to) {
      return std::nullopt;
    }
  }
  std::optional<Substitution> found;
  OracleMatchConjunction(
      query.body(), target, seed,
      [&](const Substitution& match) {
        found = match;
        return false;  // first match suffices
      },
      stats, most_constrained_first);
  return found;
}

}  // namespace floq

#endif  // FLOQ_TESTS_MATCHER_ORACLE_H_
