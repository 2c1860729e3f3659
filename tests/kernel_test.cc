// Tests for the compiled homomorphism kernel (DESIGN.md §9): the
// BindingTrail, the galloping posting-list intersection, pattern
// compilation, and — the load-bearing part — differential properties
// asserting that the kernel and the map-based matcher oracle
// (matcher_oracle.h) enumerate *identical* match sets over the src/gen
// corpus and over a corpus long enough to drive the leapfrog loop, and
// that CheckContainment and the batch ContainmentEngine, in sequential
// and parallel modes, reach the verdicts an oracle search reaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "containment/containment.h"
#include "containment/engine.h"
#include "datalog/binding_trail.h"
#include "datalog/compiled_pattern.h"
#include "datalog/match.h"
#include "datalog/posting_intersect.h"
#include "gen/generators.h"
#include "matcher_oracle.h"
#include "query/parser.h"
#include "term/world.h"
#include "util/rng.h"

namespace floq {
namespace {

// ---- BindingTrail ----------------------------------------------------------

TEST(BindingTrailTest, BindMarkUndo) {
  BindingTrail trail(4);
  EXPECT_FALSE(trail.Bound(0));
  trail.Bind(0, Term::Constant(7));
  size_t mark = trail.Mark();
  trail.Bind(2, Term::Variable(1));
  trail.Bind(3, Term::Null(5));
  EXPECT_TRUE(trail.Bound(2));
  EXPECT_EQ(trail.Get(3), Term::Null(5));
  EXPECT_EQ(trail.trail().size(), 3u);

  trail.UndoTo(mark);
  EXPECT_TRUE(trail.Bound(0));
  EXPECT_EQ(trail.Get(0), Term::Constant(7));
  EXPECT_FALSE(trail.Bound(2));
  EXPECT_FALSE(trail.Bound(3));

  // Slots freed by the undo are bindable again.
  trail.Bind(2, Term::Constant(9));
  EXPECT_EQ(trail.Get(2), Term::Constant(9));
  trail.UndoTo(0);
  EXPECT_FALSE(trail.Bound(0));
  EXPECT_EQ(trail.Mark(), 0u);
}

// ---- galloping search and k-way intersection --------------------------------

std::vector<uint32_t> RandomSortedIds(Rng& rng, size_t len, uint32_t universe) {
  std::set<uint32_t> ids;
  while (ids.size() < len) ids.insert(uint32_t(rng.Below(universe)));
  return {ids.begin(), ids.end()};
}

TEST(GallopTest, AgreesWithLowerBound) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> list =
        RandomSortedIds(rng, 1 + rng.Below(200), 1000);
    for (int probe = 0; probe < 40; ++probe) {
      uint32_t target = uint32_t(rng.Below(1100));
      size_t begin = rng.Below(list.size() + 1);
      size_t expected =
          size_t(std::lower_bound(list.begin() + begin, list.end(), target) -
                 list.begin());
      EXPECT_EQ(GallopToLowerBound(list, begin, target), expected)
          << "begin=" << begin << " target=" << target;
    }
  }
}

TEST(IntersectTest, AgreesWithSetIntersection) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    size_t k = 2 + rng.Below(4);
    uint32_t universe = 50 + uint32_t(rng.Below(500));
    std::vector<std::vector<uint32_t>> lists;
    for (size_t i = 0; i < k; ++i) {
      lists.push_back(RandomSortedIds(rng, 1 + rng.Below(universe / 2),
                                      universe));
    }
    std::vector<uint32_t> expected = lists[0];
    for (size_t i = 1; i < k; ++i) {
      std::vector<uint32_t> next;
      std::set_intersection(expected.begin(), expected.end(),
                            lists[i].begin(), lists[i].end(),
                            std::back_inserter(next));
      expected = std::move(next);
    }

    std::vector<PostingView> views(lists.begin(), lists.end());
    std::vector<uint32_t> actual;
    IntersectPostingLists(views, actual);
    EXPECT_EQ(actual, expected) << "k=" << k << " trial=" << trial;
  }
}

TEST(IntersectTest, EmptyAndDisjointLists) {
  std::vector<uint32_t> a = {1, 3, 5};
  std::vector<uint32_t> b;
  std::vector<uint32_t> out = {99};
  std::vector<PostingView> lists = {PostingView(a), PostingView(b)};
  IntersectPostingLists(lists, out);
  EXPECT_TRUE(out.empty());

  std::vector<uint32_t> c = {2, 4, 6};
  lists = {PostingView(a), PostingView(c)};
  IntersectPostingLists(lists, out);
  EXPECT_TRUE(out.empty());
}

// ---- pattern compilation ----------------------------------------------------

TEST(CompiledPatternTest, ClassifiesArgumentPositions) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "data(john, age, v33), member(john, person)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  // X is a first occurrence in atom 0 then a join in atom 1; Y repeats
  // within atom 0; `person` is a constant with a nonempty posting list.
  auto pattern = ParseAtoms(world, "data(X, Y, Y), member(X, person)");
  ASSERT_TRUE(pattern.ok());
  MatchStats stats;
  CompiledPattern compiled(*pattern, index, Substitution(), &stats);

  ASSERT_EQ(compiled.atoms().size(), 2u);
  EXPECT_EQ(compiled.num_slots(), 2u);  // X, Y
  const CompiledAtom& data = compiled.atoms()[0];
  EXPECT_EQ(data.args[0].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(data.args[0].repeated_in_atom);
  EXPECT_EQ(data.args[1].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(data.args[1].repeated_in_atom);
  EXPECT_EQ(data.args[2].kind, CompiledArg::Kind::kSlot);
  EXPECT_TRUE(data.args[2].repeated_in_atom);
  EXPECT_EQ(data.args[1].slot, data.args[2].slot);
  EXPECT_EQ(data.num_const_lists, 0);
  EXPECT_EQ(data.num_slot_positions, 3);

  const CompiledAtom& member = compiled.atoms()[1];
  EXPECT_EQ(member.args[0].kind, CompiledArg::Kind::kSlot);
  EXPECT_EQ(member.args[0].slot, data.args[0].slot);  // same X
  EXPECT_EQ(member.args[1].kind, CompiledArg::Kind::kConstant);
  EXPECT_EQ(member.args[1].value, world.MakeConstant("person"));
  // The constant position's posting list was resolved at compile time.
  EXPECT_EQ(member.num_const_lists, 1);
  EXPECT_EQ(member.const_lists[0].size(), 1u);
  // static_best is the constant list (views have no identity, so the
  // compiled atom records which input won).
  EXPECT_EQ(member.static_best_const_index, 0);
  EXPECT_EQ(member.static_best.size(), member.const_lists[0].size());
  EXPECT_FALSE(compiled.impossible());
  EXPECT_EQ(stats.index_probes, 1u);
}

TEST(CompiledPatternTest, EmptyConstantListShortCircuitsCompilation) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "data(john, age, v33), member(john, person)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  // Nobody is a member of class `john`: the empty posting list proves the
  // conjunction unmatchable and compilation stops there, like the
  // oracle's first-empty-candidate-list bailout.
  auto pattern = ParseAtoms(world, "member(X, john), data(X, Y, Z)");
  ASSERT_TRUE(pattern.ok());
  MatchStats stats;
  CompiledPattern compiled(*pattern, index, Substitution(), &stats);
  EXPECT_TRUE(compiled.impossible());
  EXPECT_EQ(compiled.atoms().size(), 0u);  // stopped inside the first atom
  EXPECT_EQ(stats.index_probes, 1u);

  // And the kernel reports no matches without expanding a node.
  MatchStats search_stats;
  size_t matches = 0;
  MatchConjunction(
      *pattern, index, Substitution(),
      [&](const Substitution&) {
        ++matches;
        return true;
      },
      &search_stats);
  EXPECT_EQ(matches, 0u);
  EXPECT_EQ(search_stats.nodes_visited, 0u);
}

TEST(CompiledPatternTest, InitialBindingsBecomeConstants) {
  World world;
  FactIndex index;
  auto facts = ParseAtoms(world, "sub(a, b), sub(b, c)");
  ASSERT_TRUE(facts.ok());
  for (const Atom& atom : *facts) index.Insert(atom);

  auto pattern = ParseAtoms(world, "sub(X, Y)");
  ASSERT_TRUE(pattern.ok());
  Substitution initial;
  initial.Bind(world.MakeVariable("X"), world.MakeConstant("b"));
  CompiledPattern compiled(*pattern, index, initial, nullptr);

  EXPECT_EQ(compiled.num_slots(), 1u);  // only Y remains free
  const CompiledAtom& sub = compiled.atoms()[0];
  EXPECT_EQ(sub.args[0].kind, CompiledArg::Kind::kConstant);
  EXPECT_EQ(sub.args[0].value, world.MakeConstant("b"));
  EXPECT_EQ(sub.args[1].kind, CompiledArg::Kind::kSlot);
  EXPECT_FALSE(compiled.impossible());
  // static_best is the resolved sub(b, _) list: exactly one fact.
  EXPECT_EQ(sub.static_best.size(), 1u);
  EXPECT_EQ(sub.static_best_const_index, 0);
}

// ---- differential property: identical match sets ----------------------------

// Canonical rendering of a match for set comparison: the (raw, raw) pairs
// of the substitution, sorted.
std::string CanonicalMatch(const Substitution& match) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (const auto& [from, to] : match.entries()) {
    entries.emplace_back(from.raw(), to.raw());
  }
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const auto& [from, to] : entries) {
    out += std::to_string(from) + "->" + std::to_string(to) + ";";
  }
  return out;
}

// Every match of `pattern` into `index`, from the kernel or the oracle.
std::set<std::string> AllMatches(std::span<const Atom> pattern,
                                 const FactIndex& index, bool oracle,
                                 MatchStats* stats = nullptr) {
  std::set<std::string> matches;
  auto collect = [&](const Substitution& match) {
    matches.insert(CanonicalMatch(match));
    return true;
  };
  if (oracle) {
    OracleMatchConjunction(pattern, index, Substitution(), collect, stats);
  } else {
    MatchConjunction(pattern, index, Substitution(), collect, stats);
  }
  return matches;
}

class KernelEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelEquivalenceProperty, SameMatchSetsOnGenCorpus) {
  const uint64_t seed = GetParam();
  World world;

  // Target: the level-0 chase of a random query (dense, join-heavy).
  gen::RandomQuerySpec target_spec;
  target_spec.seed = seed;
  target_spec.atoms = 10 + int(seed % 6);
  target_spec.variable_pool = 5 + int(seed % 3);
  target_spec.constant_pool = 3;
  target_spec.constant_probability = 0.25;
  target_spec.arity = 0;
  ConjunctiveQuery q1 =
      gen::MakeRandomQuery(world, target_spec, "target");
  ChaseResult chase = ChaseLevelZero(world, q1);
  ASSERT_TRUE(chase.conjuncts().PostingListsSorted());

  for (int probe_index = 0; probe_index < 4; ++probe_index) {
    gen::RandomQuerySpec probe_spec;
    probe_spec.seed = seed * 97 + uint64_t(probe_index);
    probe_spec.atoms = 3 + int((seed + uint64_t(probe_index)) % 4);
    probe_spec.variable_pool = 4;
    probe_spec.constant_pool = 3;
    probe_spec.constant_probability = 0.25;
    probe_spec.arity = 0;
    probe_spec.with_constraints = false;
    ConjunctiveQuery probe =
        gen::MakeRandomQuery(world, probe_spec, "probe").RenameApart(world);

    EXPECT_EQ(AllMatches(probe.body(), chase.conjuncts(), /*oracle=*/false),
              AllMatches(probe.body(), chase.conjuncts(), /*oracle=*/true))
        << "kernel vs oracle, probe " << probe.ToString(world);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceProperty,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

// The gen corpus above keeps every candidate list under the kernel's
// intersection cutoff (128 ids), so it never reaches the leapfrog loop.
// This corpus does: 800 objects drawn at random over a few attributes,
// values and classes give constant-position lists of ~160-400 ids whose
// pairwise intersections are a fraction of either, so the kernel drives
// one list and gallops the others. The draws are random so that a skip
// target is often itself a match (a periodic layout would never land a
// skip on one, and a skip that overshoots by one id would go unseen).
// Checked on the plain and the frozen (block-compressed) tiers.
TEST(KernelLeapfrogTest, LongListIntersectionMatchesOracle) {
  World world;
  FactIndex index;
  Rng rng(17);
  auto named = [&](const char* prefix, uint64_t k) {
    return world.MakeConstant(prefix + std::to_string(k));
  };
  for (uint64_t i = 0; i < 800; ++i) {
    const Term object = named("o", i);
    index.Insert(Atom::Data(object, named("attr", rng.Below(3)),
                            named("val", rng.Below(4))));
    index.Insert(Atom::Member(object, named("class", rng.Below(2))));
    index.Insert(Atom::Member(object, named("kind", rng.Below(5))));
  }
  const char* patterns[] = {
      "data(X, attr0, val1)",
      "data(X, attr2, val3), member(X, class1)",
      "data(X, A, val0), member(X, class0), member(X, kind3)",
      "data(X, attr1, V), data(Y, attr1, V), member(Y, kind2)",
  };
  for (bool frozen : {false, true}) {
    if (frozen) index.Freeze();
    MatchStats kernel_stats;
    for (const char* text : patterns) {
      auto pattern = ParseAtoms(world, text);
      ASSERT_TRUE(pattern.ok()) << text;
      std::set<std::string> expected =
          AllMatches(*pattern, index, /*oracle=*/true);
      EXPECT_FALSE(expected.empty()) << text;
      EXPECT_EQ(AllMatches(*pattern, index, /*oracle=*/false, &kernel_stats),
                expected)
          << text << (frozen ? " (frozen)" : " (plain)");
    }
    EXPECT_GT(kernel_stats.intersect_nodes, 0u) << "frozen " << frozen;
    EXPECT_GT(kernel_stats.gallop_skips, 0u) << "frozen " << frozen;
  }
}

// An oracle search of the same chase CheckContainment builds: chase(lhs)
// to the Theorem 12 bound, then body(rhs) -> chase(lhs) with the heads
// aligned. True when the oracle finds a homomorphism (or lhs is
// unsatisfiable, so containment holds vacuously).
bool OracleContained(World& world, const ConjunctiveQuery& lhs,
                     const ConjunctiveQuery& rhs) {
  ChaseOptions options;
  options.max_level = PaperLevelBound(lhs, rhs);
  options.max_atoms = ContainmentOptions().max_chase_atoms;
  ChaseResult chase = ChaseQuery(world, lhs, options);
  if (chase.failed()) return true;
  return OracleQueryHomomorphism(rhs.RenameApart(world), chase.conjuncts(),
                                 chase.head())
      .has_value();
}

// The head-seeded search path (initial substitution non-empty) must agree
// too: full CheckContainment against the oracle's search.
class KernelContainmentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelContainmentProperty, SameVerdictsThroughCheckContainment) {
  const uint64_t seed = GetParam();
  World world;
  gen::RandomQuerySpec spec;
  spec.seed = seed;
  spec.atoms = 3 + int(seed % 4);
  spec.variable_pool = 4;
  spec.arity = 1;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(world, spec, "q1");
  spec.seed = seed + 1000;
  spec.atoms = 3 + int((seed + 1) % 4);
  ConjunctiveQuery q2 = gen::MakeRandomQuery(world, spec, "q2");

  for (const auto& [lhs, rhs] : {std::pair{&q1, &q2}, std::pair{&q2, &q1}}) {
    Result<ContainmentResult> result = CheckContainment(world, *lhs, *rhs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->resolution, Resolution::kUnknown);
    EXPECT_EQ(result->contained, OracleContained(world, *lhs, *rhs))
        << lhs->ToString(world) << " vs " << rhs->ToString(world);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelContainmentProperty,
                         ::testing::Range(uint64_t(0), uint64_t(30)));

// ---- differential property: engine verdicts vs the oracle, jobs 1 and N ----

TEST(KernelEngineEquivalence, SameMatrixAcrossKernelAndJobs) {
  for (int jobs : {1, 4}) {
    World world;
    BatchContainmentOptions options;
    options.jobs = jobs;
    ContainmentEngine engine(world, options);
    std::vector<ConjunctiveQuery> queries;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      gen::RandomQuerySpec spec;
      spec.seed = seed;
      spec.atoms = 3 + int(seed % 4);
      spec.variable_pool = 4;
      spec.arity = 1;
      queries.push_back(
          gen::MakeRandomQuery(world, spec, "q" + std::to_string(seed)));
    }
    // Renamed copies give the matrix contained pairs (random queries of
    // this size rarely contain each other).
    for (size_t k = 0; k < 3; ++k) {
      queries.push_back(queries[k].RenameApart(world));
    }
    for (const ConjunctiveQuery& query : queries) {
      auto id = engine.AddQuery(query);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    auto matrix = engine.CheckAll();
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    int contained = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t j = 0; j < queries.size(); ++j) {
        if (i == j) continue;
        const PairVerdict& verdict = (*matrix)[i][j];
        ASSERT_NE(verdict.resolution, Resolution::kUnknown);
        EXPECT_EQ(verdict.contained,
                  OracleContained(world, queries[i], queries[j]))
            << "jobs " << jobs << ": " << queries[i].ToString(world)
            << " vs " << queries[j].ToString(world);
        contained += verdict.contained;
      }
    }
    EXPECT_GT(contained, 0) << "jobs " << jobs;
  }
}

// ---- sortedness invariant the intersection relies on ------------------------

TEST(FactIndexInvariant, PostingListsSortedOnChasedCorpus) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    World world;
    gen::RandomQuerySpec spec;
    spec.seed = seed;
    spec.atoms = 8;
    spec.variable_pool = 5;
    spec.arity = 0;
    ConjunctiveQuery q = gen::MakeRandomQuery(world, spec, "q");
    ChaseResult chase = ChaseLevelZero(world, q);
    EXPECT_TRUE(chase.conjuncts().PostingListsSorted()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace floq
