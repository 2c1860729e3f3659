#include "containment/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "containment/signature.h"
#include "gen/generators.h"
#include "query/parser.h"
#include "term/world.h"

namespace floq {
namespace {

ConjunctiveQuery Q(World& world, const char* text) {
  Result<ConjunctiveQuery> q = ParseQuery(world, text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// ---- signature lattice units ---------------------------------------------

TEST(SignatureTest, PredicateBitsSubsetToleratesDifferentWidths) {
  PredicateBits narrow, wide;
  narrow.Set(pfl::kMember);
  wide.Set(pfl::kMember);
  wide.Set(200);  // forces a second word
  EXPECT_TRUE(narrow.IsSubsetOf(wide));
  EXPECT_FALSE(wide.IsSubsetOf(narrow));  // bit 200 reads as absent
  narrow.Set(130);
  EXPECT_FALSE(narrow.IsSubsetOf(wide));
  EXPECT_EQ(wide.Count(), 2);
}

TEST(SignatureTest, SigmaClosureAddsOnlyRho1AndRho5Heads) {
  auto closure_of = [](const std::vector<PredicateId>& preds) {
    PredicateBits bits;
    for (PredicateId p : preds) bits.Set(p);
    return SigmaClosurePredicates(bits);
  };

  // {mandatory} |-> + data (rho_5), and nothing else.
  PredicateBits c = closure_of({pfl::kMandatory});
  EXPECT_TRUE(c.Test(pfl::kData));
  EXPECT_FALSE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 2);

  // {type, data} |-> + member (rho_1).
  c = closure_of({pfl::kType, pfl::kData});
  EXPECT_TRUE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 3);

  // {mandatory, type} |-> + data (rho_5), then + member (rho_1): the
  // fixpoint chains.
  c = closure_of({pfl::kMandatory, pfl::kType});
  EXPECT_TRUE(c.Test(pfl::kData));
  EXPECT_TRUE(c.Test(pfl::kMember));
  EXPECT_EQ(c.Count(), 4);

  // sub and funct are preserved but never invented.
  c = closure_of({pfl::kSub, pfl::kFunct});
  EXPECT_EQ(c.Count(), 2);
}

TEST(SignatureTest, ConstantMultiplicityIsNotADischargeCondition) {
  World world;
  // rhs mentions constant c twice at the same spot, lhs only once: a
  // homomorphism may map both atoms onto the one chase conjunct, so only
  // the *distinct* constants and grams participate in the subset test.
  ConjunctiveQuery lhs_q = Q(world, "l(X) :- member(X, c).");
  ConjunctiveQuery rhs_q = Q(world, "r(X) :- member(X, c), member(Y, c).");
  const ChaseResult probe = ChaseQuery(world, lhs_q);
  ASSERT_EQ(probe.outcome(), ChaseOutcome::kCompleted);
  ClosureSignature lhs = ComputeClosureSignature(lhs_q, probe);
  ASSERT_TRUE(lhs.exact);
  QuerySignature rhs = ComputeQuerySignature(rhs_q);
  EXPECT_EQ(rhs.constant_counts[0], 2u);  // the multiset is still recorded
  EXPECT_EQ(rhs.grams.size(), 1u);
  EXPECT_TRUE(MayContain(lhs, rhs));
}

// Decides lhs ⊆ rhs with the signature filter on and off; returns the
// filtered verdict after checking both pipelines agree on the resolution.
PairVerdict CheckBothWays(const char* lhs, const char* rhs) {
  World world;
  const ConjunctiveQuery queries[] = {Q(world, lhs), Q(world, rhs)};
  BatchContainmentOptions with_index;
  with_index.jobs = 1;
  BatchContainmentOptions no_index = with_index;
  no_index.containment.use_signature_index = false;
  ContainmentEngine fast(world, with_index);
  ContainmentEngine full(world, no_index);
  EXPECT_TRUE(fast.AddQueries(queries).ok());
  EXPECT_TRUE(full.AddQueries(queries).ok());
  const std::pair<size_t, size_t> pair[] = {{0, 1}};
  Result<std::vector<PairVerdict>> f = fast.CheckPairs(pair);
  Result<std::vector<PairVerdict>> s = full.CheckPairs(pair);
  EXPECT_TRUE(f.ok() && s.ok());
  EXPECT_FALSE((*s)[0].pruned);
  EXPECT_EQ((*f)[0].resolution, (*s)[0].resolution) << lhs << " vs " << rhs;
  return (*f)[0];
}

// The pair the multiplicity test used before grams: rhs needs a member
// conjunct with c in *first* position, which the lhs chase lacks.
TEST(SignatureTest, MissingGramDischargesThePair) {
  const PairVerdict v = CheckBothWays("l(X) :- member(X, c).",
                                      "r(X) :- member(X, c), member(c, c).");
  EXPECT_TRUE(v.pruned);
  EXPECT_EQ(v.resolution, Resolution::kNotContained);
}

TEST(SignatureTest, GramsArePositional) {
  World world;
  QuerySignature sig = ComputeQuerySignature(
      Q(world, "q() :- data(O, age, V), member(O, age)."));
  const Term age = world.MakeConstant("age");
  EXPECT_EQ(sig.grams, (std::vector<uint64_t>{MakeGram(pfl::kMember, 1, age),
                                              MakeGram(pfl::kData, 1, age)}));
  // Same predicates and constants, the constant one position over.
  for (const auto& [lhs, rhs] :
       {std::pair{"l() :- data(O, age, V).", "r() :- data(O, A, age)."},
        std::pair{"l() :- data(O, A, age).", "r() :- data(O, age, V)."}}) {
    const PairVerdict v = CheckBothWays(lhs, rhs);
    EXPECT_TRUE(v.pruned) << lhs << " vs " << rhs;
    EXPECT_EQ(v.resolution, Resolution::kNotContained);
  }
}

// rho_1 moves t from type's third position to member's second: the gram
// only the chase has must keep the (contained) pair alive.
TEST(SignatureTest, ClosureGramsKeepRho1DerivedMember) {
  World world;
  ConjunctiveQuery lhs = Q(world, "l() :- type(o, a, t), data(o, a, V).");
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(lhs).ok());
  const ClosureSignature* sig = engine.signature_of(0);
  ASSERT_NE(sig, nullptr);
  EXPECT_TRUE(sig->exact);
  const uint64_t member_t = MakeGram(pfl::kMember, 1, world.MakeConstant("t"));
  EXPECT_FALSE(std::binary_search(sig->base.grams.begin(),
                                  sig->base.grams.end(), member_t));
  EXPECT_TRUE(std::binary_search(sig->closure_grams.begin(),
                                 sig->closure_grams.end(), member_t));

  const PairVerdict v = CheckBothWays("l() :- type(o, a, t), data(o, a, V).",
                                      "r() :- member(X, t).");
  EXPECT_FALSE(v.pruned);
  EXPECT_EQ(v.resolution, Resolution::kContained);
}

// An infinite chase leaves the probe inconclusive: its prefix grams bound
// nothing deeper, so the signature must not prune by gram. The rhs gram
// member(c, ·) is missing from the chase, but predicates and constants
// alone cannot refute the pair.
TEST(SignatureTest, InconclusiveProbeNeverPrunesByGram) {
  const char* cycle = "l() :- member(o, c), mandatory(a, c), type(c, a, c).";
  World world;
  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(Q(world, cycle)).ok());
  const ClosureSignature* sig = engine.signature_of(0);
  ASSERT_NE(sig, nullptr);
  EXPECT_FALSE(sig->exact);
  EXPECT_TRUE(sig->prunable);
  EXPECT_EQ(sig->closure_gram_mask, ~uint64_t(0));

  const PairVerdict v = CheckBothWays(cycle, "r() :- member(c, o).");
  EXPECT_FALSE(v.pruned);
  EXPECT_EQ(v.resolution, Resolution::kNotContained);
}

// A failed chase is vacuously contained in everything, including an rhs
// whose grams it lacks.
TEST(SignatureTest, FailedChaseNeverPrunesByGram) {
  const PairVerdict v = CheckBothWays(
      "l() :- funct(a, o), data(o, a, one), data(o, a, two).",
      "r() :- data(one, a, o).");
  EXPECT_FALSE(v.pruned);
  EXPECT_EQ(v.resolution, Resolution::kContained);
  EXPECT_TRUE(v.lhs_unsatisfiable);
}

// ---- adversarial near-misses ---------------------------------------------

// The naive predicate-subset test would discharge this pair: member
// occurs nowhere in the lhs body. But rho_1 derives member(V, T) — the
// attribute's value belongs to its declared type — in the chase, and the
// containment genuinely holds — the closure fingerprint must keep the
// pair alive.
TEST(SignatureTest, ClosureKeepsRho1DerivablePairs) {
  World world;
  ConjunctiveQuery lhs = Q(world, "l(V) :- type(o, a, T), data(o, a, V).");
  ConjunctiveQuery rhs = Q(world, "r(V) :- member(V, T).");

  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(lhs).ok());
  ASSERT_TRUE(engine.AddQuery(rhs).ok());
  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_FALSE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kContained);
}

// A failed chase makes the lhs vacuously contained in *everything* —
// including queries whose predicates and constants it never mentions. The
// filter must never touch such a pair.
TEST(SignatureTest, FailedChaseLhsIsNeverPruned) {
  World world;
  ConjunctiveQuery bad =
      Q(world, "l() :- funct(a, o), data(o, a, one), data(o, a, two).");
  ConjunctiveQuery foreign = Q(world, "r() :- sub(c9, c10).");

  ContainmentEngine engine(world);
  ASSERT_TRUE(engine.AddQuery(bad).ok());
  ASSERT_TRUE(engine.AddQuery(foreign).ok());
  const ClosureSignature* sig = engine.signature_of(0);
  ASSERT_NE(sig, nullptr);
  EXPECT_TRUE(sig->chase_failed);
  EXPECT_FALSE(sig->prunable);

  std::vector<std::pair<size_t, size_t>> pairs = {{0, 1}};
  Result<std::vector<PairVerdict>> verdicts = engine.CheckPairs(pairs);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  EXPECT_FALSE((*verdicts)[0].pruned);
  EXPECT_EQ((*verdicts)[0].resolution, Resolution::kContained);
  EXPECT_TRUE((*verdicts)[0].lhs_unsatisfiable);
}

// ---- differential soundness over generated workloads ---------------------

// Same-arity workloads mixing the structured generator families, random
// queries over a shared constant pool, and hand-written near-miss pairs
// (same predicates, one constant off; rho_1/rho_5-derivable rhs
// predicates).
std::vector<ConjunctiveQuery> BooleanWorkload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(gen::MakeMandatoryCycleQuery(world, 1, "cycle1"));
  queries.push_back(gen::MakeDataChainProbe(world, 2, "probe2"));
  queries.push_back(gen::MakeDataChainProbe(world, 3, "probe3"));
  queries.push_back(Q(world, "b0() :- member(X, c1)."));
  queries.push_back(Q(world, "b1() :- member(X, c2)."));  // near-miss: c2
  queries.push_back(Q(world, "b2() :- member(X, C), sub(C, D)."));
  queries.push_back(Q(world, "b3() :- type(o, a, T), data(o, a, V)."));
  queries.push_back(Q(world, "b4() :- member(V, T)."));
  queries.push_back(Q(world, "b5() :- mandatory(a, o)."));
  queries.push_back(Q(world, "b6() :- data(o, a, V)."));
  queries.push_back(
      Q(world, "b7() :- funct(a, o), data(o, a, one), data(o, a, two)."));
  queries.push_back(Q(world, "b8() :- sub(c9, c10)."));
  return queries;
}

std::vector<ConjunctiveQuery> UnaryWorkload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  for (int seed = 1; seed <= 8; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(seed);
    spec.atoms = 4;
    spec.variable_pool = 3;
    spec.constant_pool = 3;         // shared pool: forces overlaps
    spec.constant_probability = 0.35;
    spec.arity = 1;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "r" + std::to_string(seed)));
  }
  queries.push_back(Q(world, "u0(X) :- member(X, c1)."));
  queries.push_back(Q(world, "u1(X) :- member(X, c1), member(X, c2)."));
  queries.push_back(Q(world, "u2(X) :- data(X, a, V)."));
  queries.push_back(Q(world, "u3(X) :- data(X, a, c1)."));
  return queries;
}

// Mandatory/funct-heavy random queries (rho_4 merges, rho_5 nulls, some
// failing chases and some infinite ones) over a small constant pool, plus
// positional near-misses: the same constant at another argument.
std::vector<ConjunctiveQuery> ConstraintWorkload(World& world) {
  std::vector<ConjunctiveQuery> queries;
  for (int seed = 1; seed <= 24; ++seed) {
    gen::RandomQuerySpec spec;
    spec.seed = uint64_t(100 + seed);
    spec.atoms = 3 + seed % 3;
    spec.variable_pool = 3;
    spec.constant_pool = 3;
    spec.constant_probability = 0.5;
    spec.arity = 0;
    spec.with_constraints = true;
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "m" + std::to_string(seed)));
  }
  queries.push_back(gen::MakeMandatoryCycleQuery(world, 2, "cycle2"));
  queries.push_back(gen::MakeFunctFanQuery(world, 2, "fan2"));
  queries.push_back(Q(world, "p0() :- data(O, c1, V)."));
  queries.push_back(Q(world, "p1() :- data(O, A, c1)."));
  queries.push_back(Q(world, "p2() :- data(c1, A, V), funct(A, c1)."));
  queries.push_back(Q(world, "p3() :- mandatory(c1, C), member(O, C)."));
  queries.push_back(Q(world, "p4() :- type(c1, A, T), data(c1, A, V)."));
  queries.push_back(Q(world, "p5() :- member(V, T), member(c1, T)."));
  return queries;
}

// Checks every pair with the signature filter on against the full
// pipeline and returns how many pairs only a gram test discharged.
uint64_t ExpectDifferentialParity(
    World& world, const std::vector<ConjunctiveQuery>& queries) {
  BatchContainmentOptions with_index;
  with_index.jobs = 1;
  ContainmentEngine pruned_engine(world, with_index);

  BatchContainmentOptions no_index = with_index;
  no_index.containment.use_signature_index = false;
  ContainmentEngine full_engine(world, no_index);

  for (const ConjunctiveQuery& q : queries) {
    EXPECT_TRUE(pruned_engine.AddQuery(q).ok());
    EXPECT_TRUE(full_engine.AddQuery(q).ok());
  }
  Result<std::vector<std::vector<PairVerdict>>> fast = pruned_engine.CheckAll();
  Result<std::vector<std::vector<PairVerdict>>> slow = full_engine.CheckAll();
  EXPECT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  if (!fast.ok() || !slow.ok()) return 0;

  uint64_t pruned = 0;
  uint64_t gram_only = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      const PairVerdict& f = (*fast)[i][j];
      const PairVerdict& s = (*slow)[i][j];
      // Soundness: the filter must never discharge a pair the full
      // procedure proves contained or leaves UNKNOWN (a violation here is
      // the gated-at-zero condition of the bench suite).
      if (f.pruned) {
        ++pruned;
        QuerySignature gramless = pruned_engine.signature_of(j)->base;
        gramless.grams.clear();
        gramless.gram_mask = 0;
        gram_only += MayContain(*pruned_engine.signature_of(i), gramless);
        EXPECT_EQ(s.resolution, Resolution::kNotContained)
            << "soundness violation: pruned pair " << queries[i].name()
            << " ⊆ " << queries[j].name() << " is actually "
            << ResolutionName(s.resolution);
      }
      // Parity: identical verdicts pair-for-pair (the --no-prune
      // contract).
      EXPECT_EQ(f.resolution, s.resolution)
          << queries[i].name() << " ⊆ " << queries[j].name();
      EXPECT_EQ(f.contained, s.contained);
      EXPECT_EQ(f.lhs_unsatisfiable, s.lhs_unsatisfiable);
    }
  }
  EXPECT_EQ(pruned, pruned_engine.stats().pruned_pairs);
  EXPECT_GT(pruned_engine.stats().pruned_pairs, 0u);
  EXPECT_EQ(full_engine.stats().pruned_pairs, 0u);
  return gram_only;
}

TEST(ContainmentIndexTest, DifferentialSoundnessBooleanWorkload) {
  World world;
  ExpectDifferentialParity(world, BooleanWorkload(world));
}

TEST(ContainmentIndexTest, DifferentialSoundnessUnaryWorkload) {
  World world;
  ExpectDifferentialParity(world, UnaryWorkload(world));
}

// The gram stage against the full pipeline on a workload where grams do
// real work: it must discharge some pair by gram alone and never a pair
// the full pipeline calls CONTAINED or UNKNOWN.
TEST(ContainmentIndexTest, DifferentialSoundnessGramsOnConstraintWorkload) {
  World world;
  EXPECT_GT(ExpectDifferentialParity(world, ConstraintWorkload(world)), 0u);
}

// ---- the incremental index -----------------------------------------------

TEST(ContainmentIndexTest, IncrementalInsertMatchesBatchClassifier) {
  World world;
  std::vector<ConjunctiveQuery> queries = UnaryWorkload(world);

  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    Result<size_t> id = index.Insert(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  QueryTaxonomy incremental = index.Taxonomy();

  Result<QueryTaxonomy> batch = ClassifyQueries(world, queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  EXPECT_EQ(incremental.class_of, batch->class_of);
  EXPECT_EQ(incremental.classes, batch->classes);
  EXPECT_EQ(incremental.hasse_edges, batch->hasse_edges);
  EXPECT_EQ(incremental.contains, batch->contains);
}

TEST(ContainmentIndexTest, InsertChecksOnlySurvivingCandidates) {
  World world;
  std::vector<ConjunctiveQuery> queries = BooleanWorkload(world);
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  for (const ConjunctiveQuery& q : queries) {
    ASSERT_TRUE(index.Insert(q).ok());
  }
  const IndexStats& stats = index.index_stats();
  const size_t n = queries.size();
  EXPECT_EQ(stats.inserts, n);
  EXPECT_EQ(stats.candidate_pairs, n * (n - 1));
  EXPECT_EQ(stats.pruned_pairs + stats.checked_pairs, stats.candidate_pairs);
  // The point of the index: most candidates never reach the engine.
  EXPECT_GT(stats.pruned_pairs, 0u);
  // The engine saw only survivors, so its own stage 0 found nothing left
  // to prune (the prefilter and stage 0 run the identical test).
  EXPECT_EQ(index.engine_stats().pruned_pairs, 0u);
}

TEST(ContainmentIndexTest, CrossArityPairsAreIncomparable) {
  World world;
  BatchContainmentOptions options;
  options.jobs = 1;
  ContainmentIndex index(world, options);
  ASSERT_TRUE(index.Insert(Q(world, "a(X) :- member(X, C).")).ok());
  ASSERT_TRUE(index.Insert(Q(world, "b() :- member(X, C).")).ok());
  EXPECT_EQ(index.index_stats().candidate_pairs, 0u);
  EXPECT_FALSE(index.Contains(0, 1));
  EXPECT_FALSE(index.Contains(1, 0));
  EXPECT_TRUE(index.Contains(0, 0));  // reflexive diagonal
}

}  // namespace
}  // namespace floq
