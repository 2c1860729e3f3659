#include "analysis/cost_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "containment/containment.h"
#include "util/strings.h"

namespace floq::analysis {

namespace {

SourceSpan SpanOf(const World& world, uint32_t span_id) {
  return world.spans().at(span_id);
}

}  // namespace

uint64_t ChaseGrowthModel::AtomsAtLevel(int level, uint64_t cap) const {
  if (failed) return 0;
  if (completed || level <= probe_level || per_level <= 1.0) {
    return std::min(probe_atoms, cap);
  }
  // Geometric extrapolation past the probe horizon, saturated early so a
  // steep ratio cannot overflow the multiply.
  double atoms = double(probe_atoms);
  for (int k = probe_level; k < level; ++k) {
    atoms *= per_level;
    if (atoms >= double(cap)) return cap;
  }
  return uint64_t(atoms);
}

double ChaseGrowthModel::ConfidenceAtLevel(int level) const {
  if (failed || completed || level <= probe_level || per_level <= 1.0) {
    return 1.0;
  }
  // Each extrapolated level compounds the fit error; 0.9 per level is a
  // heuristic tag, not a probability — consumers only compare magnitudes.
  return std::pow(0.9, double(level - probe_level));
}

ChaseGrowthModel FitChaseGrowth(const ChaseResult& probe) {
  ChaseGrowthModel model;
  model.failed = probe.failed();
  model.completed = probe.outcome() == ChaseOutcome::kCompleted;
  model.probe_level = probe.max_level();
  model.level0_atoms = probe.CountUpToLevel(0);
  model.probe_atoms = probe.size();
  if (model.probe_level >= 1) {
    const uint64_t prev = probe.CountUpToLevel(model.probe_level - 1);
    if (prev > 0 && model.probe_atoms > prev) {
      model.per_level = double(model.probe_atoms) / double(prev);
    }
  }
  return model;
}

TargetProfile ProfileTarget(const ChaseResult& probe) {
  const FactIndex& index = probe.conjuncts();
  TargetProfile profile;
  profile.growth = FitChaseGrowth(probe);
  // One pass over the atoms discovers which (pred, position, constant)
  // keys exist; the FactIndex stat accessors then price each of them.
  std::set<PredicateId> predicates;
  std::set<std::pair<uint64_t, Term>> constant_keys;  // ((pred<<4)|pos, term)
  for (const Atom& atom : index.atoms()) {
    predicates.insert(atom.predicate());
    for (int i = 0; i < atom.arity(); ++i) {
      if (atom.arg(i).IsConstant()) {
        constant_keys.insert(
            {(uint64_t(atom.predicate()) << 4) | uint64_t(i), atom.arg(i)});
      }
    }
  }
  for (PredicateId pred : predicates) {
    profile.predicate_counts[pred] = index.CountWithPredicate(pred);
    const int arity = kMaxArity;
    for (int pos = 0; pos < arity; ++pos) {
      uint32_t distinct = index.DistinctArgumentValues(pred, pos);
      if (distinct > 0) {
        profile.position_distinct[(uint64_t(pred) << 4) | uint64_t(pos)] =
            distinct;
      }
    }
  }
  for (const auto& [pred_pos, term] : constant_keys) {
    const PredicateId pred = PredicateId(pred_pos >> 4);
    const int pos = int(pred_pos & 0xf);
    profile.constant_counts[(uint64_t(pred) << 36) | (uint64_t(pos) << 32) |
                            uint64_t(term.raw())] =
        index.CountWithArgument(pred, pos, term);
  }
  return profile;
}

PatternProfile ProfilePattern(const ConjunctiveQuery& query) {
  PatternProfile profile;
  profile.atoms = query.body();
  if (profile.atoms.empty()) return profile;
  // Union-find over atoms sharing a variable (the FLQ003 construction).
  std::vector<size_t> parent(profile.atoms.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::map<uint32_t, size_t> owner;  // variable -> first atom seen in
  for (size_t i = 0; i < profile.atoms.size(); ++i) {
    for (Term t : profile.atoms[i]) {
      if (!t.IsVariable()) continue;
      auto [it, fresh] = owner.insert({t.raw(), i});
      if (!fresh) parent[find(i)] = find(it->second);
    }
  }
  std::set<size_t> roots;
  for (size_t i = 0; i < profile.atoms.size(); ++i) roots.insert(find(i));
  profile.join_components = int(roots.size());
  return profile;
}

CostEstimate EstimatePairCost(const TargetProfile& target,
                              const PatternProfile& pattern, int level,
                              uint64_t atom_cap) {
  CostEstimate estimate;
  estimate.chase_levels_bound = level;
  estimate.chase_atoms_bound = target.growth.AtomsAtLevel(level, atom_cap);
  estimate.confidence = target.growth.ConfidenceAtLevel(level);
  if (target.growth.failed || pattern.atoms.empty()) {
    // A failed chase decides the pair for free; an empty pattern matches
    // trivially.
    return estimate;
  }

  // The chase only grows posting lists, never predicates' relative shape
  // (rho_1/rho_5 dominate growth uniformly enough for ranking): scale
  // every probe posting count by the total-atoms ratio.
  const double scale =
      target.growth.probe_atoms > 0
          ? double(estimate.chase_atoms_bound) /
                double(target.growth.probe_atoms)
          : 1.0;

  // Most-constrained-first walk, mirroring the kernel's atom ordering:
  // the next atom is the one with the fewest estimated candidates given
  // the variables bound so far. The search-tree node count is the sum of
  // partial-assignment counts along that order.
  const size_t n = pattern.atoms.size();
  std::vector<bool> used(n, false);
  std::set<uint32_t> bound;
  auto candidates = [&](const Atom& atom) {
    double cand = scale * double(target.PredicateCount(atom.predicate()));
    if (cand <= 0.0) return 0.0;
    for (int i = 0; i < atom.arity(); ++i) {
      Term t = atom.arg(i);
      if (t.IsVariable()) {
        if (bound.count(t.raw()) != 0) {
          uint32_t distinct = target.DistinctAt(atom.predicate(), i);
          if (distinct > 1) cand /= double(distinct);
        }
        continue;
      }
      // Constant selectivity: posting length of (pred, i, t) against the
      // predicate's total. The chase invents only nulls, so a constant
      // absent from the probe closure stays absent at every level.
      const uint32_t pred_count = target.PredicateCount(atom.predicate());
      const uint32_t with_constant =
          target.ConstantCount(atom.predicate(), i, t);
      if (with_constant == 0) return 0.0;
      cand *= double(with_constant) / double(std::max(pred_count, 1u));
    }
    return cand;
  };

  double nodes = 0.0;
  double prefix = 1.0;
  for (size_t step = 0; step < n; ++step) {
    double best_cand = 0.0;
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      double cand = candidates(pattern.atoms[i]);
      if (best == n || cand < best_cand) {
        best = i;
        best_cand = cand;
      }
    }
    used[best] = true;
    // Each live partial assignment probes this atom's posting list once
    // (the `prefix` term) and extends into `cand` children.
    nodes += prefix + prefix * best_cand;
    prefix *= best_cand;
    for (Term t : pattern.atoms[best]) {
      if (t.IsVariable()) bound.insert(t.raw());
    }
  }
  estimate.hom_fanout_bound = nodes;
  return estimate;
}

std::vector<Diagnostic> LintDependencyCost(const DependencySet& dependencies,
                                           const World& world) {
  std::vector<Diagnostic> out;
  BoundednessReport report = AnalyzeBoundedness(dependencies, world);
  if (report.degree != NullDegree::kPolynomial) {
    // kUnbounded is FLD101's finding; kNone/kLinear are benign.
    return out;
  }
  Diagnostic d = MakeDiagnostic(
      "FLD201",
      StrCat("null generation is polynomial of degree ", report.witness_degree,
             ": the chase terminates but can materialize O(n^",
             report.witness_degree,
             ") nulls on an n-element instance (", report.positions.size(),
             " position(s) receive invented values)"));
  d.notes.push_back(StrCat(
      "witness special-edge chain (depth ", report.witness_degree, "): ",
      WitnessPathToString(report.witness, dependencies, world)));
  for (const PositionBoundedness& pb : report.positions) {
    if (pb.degree != NullDegree::kPolynomial) continue;
    d.notes.push_back(StrCat(pb.position.ToString(world), ": degree ",
                             pb.witness_degree));
  }
  out.push_back(std::move(d));
  return out;
}

QueryCostReport AnalyzeQueryCost(World& world, const ConjunctiveQuery& query,
                                 const CostAnalysisOptions& options) {
  QueryCostReport report;

  ChaseOptions chase_options;
  chase_options.max_level = std::max(options.probe_levels, 0);
  chase_options.max_atoms = options.probe_max_atoms;
  ChaseResult probe = ChaseQuery(world, query, chase_options);

  TargetProfile target = ProfileTarget(probe);
  PatternProfile pattern = ProfilePattern(query);
  report.estimate =
      EstimatePairCost(target, pattern, PaperLevelBound(query, query),
                       options.chase_atom_budget);
  report.boundedness = AnalyzeSigmaBoundedness(world, query.body());

  if (pattern.join_components > 1) {
    Diagnostic d = MakeDiagnostic(
        "FLD202",
        StrCat("cross-join: the body splits into ", pattern.join_components,
               " variable-disjoint components, so the homomorphism fan-out "
               "is the product of the per-component fan-outs (estimated ",
               uint64_t(report.estimate.hom_fanout_bound), " search nodes)"),
        SpanOf(world, query.span()));
    report.diagnostics.push_back(std::move(d));
  }
  if (report.estimate.chase_atoms_bound >= options.chase_atom_budget) {
    Diagnostic d = MakeDiagnostic(
        "FLD203",
        StrCat("estimated chase exceeds the default governor budget: ~",
               report.estimate.chase_atoms_bound, " conjuncts at level ",
               report.estimate.chase_levels_bound, " (budget ",
               options.chase_atom_budget, ", confidence ",
               int(report.estimate.confidence * 100),
               "%); containment checks with this query on the left will "
               "degrade to UNKNOWN unless the budget is raised"),
        SpanOf(world, query.span()));
    if (report.boundedness.degree == NullDegree::kUnbounded) {
      d.notes.push_back(
          "the body reaches a mandatory-attribute cycle: the chase is "
          "infinite (see FLD103)");
      for (const MandatoryEdge& edge : report.boundedness.witness) {
        d.notes.push_back(edge.ToString(world));
      }
    }
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

}  // namespace floq::analysis
