#ifndef FLOQ_CONTAINMENT_SIGNATURE_H_
#define FLOQ_CONTAINMENT_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "chase/chase.h"
#include "query/conjunctive_query.h"
#include "term/predicate.h"

// Per-query containment signatures — cheap necessary conditions that
// discharge the overwhelming majority of an N^2 pair matrix before any
// chase or homomorphism work (the filter-before-expensive-check
// discipline; see DESIGN.md §13).
//
// The invariant every discharge rests on:
//
//   signature(q2) ⊄ closure-signature(q1)  ⇒  q1 ⊈_Sigma q2
//
// Concretely, for the ordered pair "lhs ⊆_Sigma rhs" the engine decides
// via a homomorphism body(rhs) -> chase_Sigma(lhs) (Theorem 4). A
// homomorphism maps every rhs body atom onto a chase conjunct with the
// SAME predicate, and fixes constants. Therefore:
//
//   preds(rhs)     ⊆ preds(chase(lhs))      and
//   constants(rhs) ⊆ constants(chase(lhs))  and
//   grams(rhs)     ⊆ grams(chase(lhs))
//
// are necessary for containment, where a *gram* is a (predicate,
// position, constant) triple: an rhs atom with constant c at position p
// can only map onto a conjunct with c at p. Their failure is a sound
// definite kNotContained — *provided* chase(lhs) did not fail (a failed
// chase makes lhs unsatisfiable and hence vacuously contained in
// everything) and the closure sets really over-approximate the full chase
// (see ClosureSignature::prunable for the two guards; grams take part only
// when the closure is exact).

namespace floq {

/// Dynamic bitset over interned predicate ids. Queries registered later
/// may intern predicates the earlier ones never saw, so subset tests must
/// tolerate operands of different widths (missing words read as zero).
class PredicateBits {
 public:
  void Set(PredicateId id) {
    const size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t(1) << (id % 64);
  }

  bool Test(PredicateId id) const {
    const size_t word = id / 64;
    return word < words_.size() &&
           ((words_[word] >> (id % 64)) & uint64_t(1)) != 0;
  }

  bool IsSubsetOf(const PredicateBits& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      const uint64_t theirs = w < other.words_.size() ? other.words_[w] : 0;
      if ((words_[w] & ~theirs) != 0) return false;
    }
    return true;
  }

  void UnionWith(const PredicateBits& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (size_t w = 0; w < other.words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
  }

  int Count() const;
  bool Any() const;
  /// Bits 64w .. 64w+63 (zero past the end).
  uint64_t word(size_t w) const { return w < words_.size() ? words_[w] : 0; }

  friend bool operator==(const PredicateBits& a, const PredicateBits& b) {
    return a.IsSubsetOf(b) && b.IsSubsetOf(a);
  }

 private:
  std::vector<uint64_t> words_;
};

/// The chase-free part of a query's signature: computed from the syntax
/// alone in one pass over head and body.
struct QuerySignature {
  /// Predicates occurring in the body.
  PredicateBits predicates;
  /// Distinct constants of body *and* head, by Term::raw(), sorted
  /// ascending. Head constants matter: safety only forces head variables
  /// into the body, so `q(c) :- member(X, D)` carries a head constant the
  /// body never mentions, and a homomorphism must still preserve it.
  std::vector<uint32_t> constants;
  /// Multiplicity of each distinct constant (parallel to `constants`) —
  /// the constant-*multiset* fingerprint. Multiplicities are lattice
  /// metadata for ordering/reporting; only the distinct set is a sound
  /// discharge condition (a homomorphism may collapse occurrences).
  std::vector<uint32_t> constant_counts;
  /// 64-bit Bloom fingerprint of `constants` (one hashed bit each). If
  /// some bit of rhs.constant_mask is missing from the lhs closure mask,
  /// some rhs constant is definitely absent — two word ops that settle
  /// most non-subset pairs without walking the sorted vectors.
  uint64_t constant_mask = 0;
  /// Distinct (predicate, position, constant) grams of the body (see
  /// MakeGram), sorted ascending.
  std::vector<uint64_t> grams;
  /// 64-bit Bloom fingerprint of `grams`, like constant_mask.
  uint64_t gram_mask = 0;
  /// |q| — body atoms. An upper cardinality bound in the signature
  /// lattice, NOT a discharge condition (homomorphisms collapse atoms).
  uint32_t atoms = 0;
  /// Distinct variables (head + body). Same caveat as `atoms`.
  uint32_t variables = 0;
  /// Head arity.
  int arity = 0;
};

QuerySignature ComputeQuerySignature(const ConjunctiveQuery& query);

/// Packs "constant `constant` at argument `position` of `predicate`" into
/// one sortable word: predicate, then position, then Term::raw().
static_assert(kMaxArity <= 16, "MakeGram keeps 4 bits for the position");
inline uint64_t MakeGram(PredicateId predicate, int position, Term constant) {
  return (uint64_t(predicate) << 34) | (uint64_t(position) << 30) |
         constant.raw();
}

/// Sigma_FL closure at the predicate level: the least superset S of
/// `start` closed under "if every body predicate of a rule is in S, add
/// its head predicate". Of the twelve rules only rho_1 ({type, data} |->
/// member) and rho_5 ({mandatory} |-> data) ever add a predicate absent
/// from their own body; the other ten are predicate-preserving, and user
/// predicates are inert (no Sigma_FL rule mentions them). Sound because a
/// chase firing requires every body predicate materialized and only adds
/// its head's predicate.
PredicateBits SigmaClosurePredicates(const PredicateBits& start);

/// A query's full registration-time signature: the syntactic part plus an
/// over-approximation of what its chase can ever contain.
struct ClosureSignature {
  QuerySignature base;

  /// Over-approximates preds(chase_Sigma(q)). Exact (the observed set)
  /// when the registration probe completed; the static
  /// SigmaClosurePredicates fixpoint otherwise.
  PredicateBits closure_predicates;

  /// Over-approximates constants(chase_Sigma(q)): the chase invents only
  /// fresh nulls, never constants, and rho_4 merges keep the
  /// chase-order-earlier term, so no new constant can ever appear —
  /// constants(chase(q)) ⊆ constants(body(q) ∪ head(q)). Sorted distinct
  /// Term::raw() values.
  std::vector<uint32_t> closure_constants;
  /// Bloom fingerprint of closure_constants (see
  /// QuerySignature::constant_mask).
  uint64_t closure_constant_mask = 0;

  /// grams(chase_Sigma(q)) as sorted distinct MakeGram values, filled only
  /// when `exact`: Sigma_FL rules move constants to new positions (rho_1
  /// turns type(O, A, t) into member(V, t)), so an inconclusive probe keeps
  /// no gram bound at all.
  std::vector<uint64_t> closure_grams;
  /// Bloom fingerprint of closure_grams; all ones when not `exact`, so
  /// such a signature never prunes by gram.
  uint64_t closure_gram_mask = ~uint64_t(0);

  /// The probe ran the chase to completion, so the closure sets are the
  /// exact materialized sets rather than static over-estimates.
  bool exact = false;

  /// The probe saw the chase fail (rho_4 equated distinct constants): q
  /// is unsatisfiable and vacuously contained in everything — it must
  /// NEVER be pruned as a left-hand side.
  bool chase_failed = false;

  /// May this signature discharge pairs with q on the left? False when
  /// chase_failed, and false when the probe was inconclusive *and* a
  /// deeper rho_4 failure is still possible (funct present, data
  /// derivable, and >= 2 distinct constants): such a failure would flip
  /// every verdict to vacuous containment, so pruning would be unsound.
  bool prunable = false;
};

/// Builds the closure signature for `query` from `probe`, the
/// registration-time bounded chase of it.
ClosureSignature ComputeClosureSignature(const ConjunctiveQuery& query,
                                         const ChaseResult& probe);

/// The stage-0 test for the ordered pair "lhs ⊆_Sigma rhs". False is a
/// sound, definite kNotContained; true means the pair needs the full
/// chase + homomorphism pipeline.
bool MayContain(const ClosureSignature& lhs, const QuerySignature& rhs);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_SIGNATURE_H_
