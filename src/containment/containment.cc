#include "containment/containment.h"

#include <algorithm>
#include <chrono>

#include "util/function_ref.h"
#include "util/request_context.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

Status ValidatePair(const World& world, const ConjunctiveQuery& q1,
                    const ConjunctiveQuery& q2) {
  FLOQ_RETURN_IF_ERROR(q1.Validate(world));
  FLOQ_RETURN_IF_ERROR(q2.Validate(world));
  if (q1.arity() != q2.arity()) {
    return InvalidArgumentError(
        StrCat("containment requires equal arities; got ", q1.arity(),
               " and ", q2.arity()));
  }
  return Status::Ok();
}

// Records a verdict under governor.h's one settle rule. Only
// CheckContainmentUnderDependencies also leaves a NOT_CONTAINED
// inconclusive; an UNKNOWN never is conclusive.
void Settle(ContainmentResult& result, bool found, TripReason chase_trip,
            TripReason hom_trip) {
  result.resolution =
      SettleResolution(found, chase_trip, hom_trip, &result.unknown_reason);
  result.contained = result.resolution == Resolution::kContained;
  result.conclusive = result.resolution != Resolution::kUnknown;
}

// The chase stage's options: the level cap (< 0: none), the atom budget,
// and `governor` when the budget limits anything.
ChaseOptions OneShotChaseOptions(const ContainmentOptions& options,
                                 int level_bound, ExecGovernor* governor) {
  ChaseOptions chase_options;
  if (level_bound >= 0) chase_options.max_level = level_bound;
  chase_options.max_atoms = options.max_chase_atoms;
  if (!options.budget.unlimited()) chase_options.governor = governor;
  return chase_options;
}

// The search half of the decision step. q2's variables must be disjoint
// from the target's values (which include q1's variables), so the search
// runs on a renamed-apart copy and the witness is expressed in q2's own
// variables.
std::optional<Substitution> SearchRenamedApart(
    World& world, const ConjunctiveQuery& q2, const FactIndex& target,
    const std::vector<Term>& head, ExecGovernor* governor,
    MatchStats* stats) {
  Substitution renaming;
  const ConjunctiveQuery fresh = q2.RenameApart(world, &renaming);
  std::optional<Substitution> hom =
      FindQueryHomomorphism(fresh, target, head, stats, governor);
  if (!hom.has_value()) return std::nullopt;
  return renaming.ComposeWith(*hom);
}

// The decision step every verdict-returning check ends in (Theorem 4): a
// homomorphism search from q2 into the materialized target (`target` and
// `head`) under one hom governor over the check's anchored deadline, then
// the settle rule. `chase_trip` is why the target's chase stopped short
// (kNone when the target is conclusive).
void SearchAndSettle(World& world, const ConjunctiveQuery& q2,
                     const FactIndex& target, const std::vector<Term>& head,
                     TripReason chase_trip, const ResourceBudget& budget,
                     Deadline anchored, ContainmentResult& result) {
  const bool governed = !budget.unlimited();
  ExecGovernor hom_governor(anchored, &budget.cancel, budget.hom_step_budget);
  const SteadyClock::time_point start = SteadyClock::now();
  result.witness =
      SearchRenamedApart(world, q2, target, head,
                         governed ? &hom_governor : nullptr, &result.hom_stats);
  result.hom_ms = MsSince(start);
  if (governed) FoldGovernorMetrics(hom_governor);
  Settle(result, result.witness.has_value(), chase_trip, hom_governor.trip());
}

// Chase → search → settle for the checks whose target is a chase of q1:
// `chase` materializes it (under Sigma_FL or a user dependency set) with
// the given options. Both stages share one anchored deadline: the budget's
// timeout is for the whole check, not per stage. (The batch engine
// re-anchors per pair and per stage instead; see engine.cc.)
ContainmentResult DecideOverChase(
    World& world, const ConjunctiveQuery& q2,
    const ContainmentOptions& options, int level_bound,
    FunctionRef<ChaseResult(const ChaseOptions&)> chase) {
  const Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, &options.budget.cancel);
  ContainmentResult result;
  result.level_bound = level_bound;
  const SteadyClock::time_point start = SteadyClock::now();
  result.chase =
      chase(OneShotChaseOptions(options, level_bound, &chase_governor));
  result.chase_ms = MsSince(start);
  FoldGovernorMetrics(chase_governor);

  if (result.chase.failed()) {
    // q1 has no answers on any database satisfying the dependencies, so
    // it is contained in every query of the same arity.
    Settle(result, /*found=*/true, TripReason::kNone, TripReason::kNone);
    result.q1_unsatisfiable = true;
    return result;
  }
  const TripReason chase_trip =
      ChaseTripReason(result.chase.outcome(), chase_governor);
  if (chase_trip == TripReason::kDeadlineExceeded ||
      chase_trip == TripReason::kCancelled) {
    // Out of time (or told to stop): do not search the prefix — a
    // positive would be sound, but the caller's clock has already run out.
    Settle(result, /*found=*/false, chase_trip, TripReason::kNone);
    return result;
  }
  // A prefix truncated by the atom budget is still searched: a
  // homomorphism into any prefix composes into the universal model, so
  // kContained remains sound (governor.h). The chase is done mutating:
  // compact its posting lists into the block-compressed frozen tier so
  // the search leapfrogs compressed blocks instead of plain vectors.
  result.chase.FreezeConjuncts();
  SearchAndSettle(world, q2, result.chase.conjuncts(), result.chase.head(),
                  chase_trip, options.budget, anchored, result);
  return result;
}

// The UCQ API has no kUnknown channel (it returns a disjunct index), so a
// trip in `stage` surfaces as the matching typed error.
Status UcqTripError(TripReason reason, const char* stage) {
  switch (reason) {
    case TripReason::kChaseAtomBudget:
      return ResourceExhaustedError("chase exceeded max_chase_atoms");
    case TripReason::kHomStepBudget:
      return ResourceExhaustedError(
          "UCQ containment exhausted the hom step budget");
    case TripReason::kCancelled:
      return CancelledError(StrCat("UCQ containment cancelled during ", stage));
    default:
      return DeadlineExceededError(
          StrCat("UCQ containment deadline exceeded during ", stage));
  }
}

}  // namespace

int PaperLevelBound(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return q2.size() * 2 * q1.size();
}

Result<ContainmentResult> CheckContainment(World& world,
                                           const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));
  const int level_bound = options.level_override >= 0
                              ? options.level_override
                              : PaperLevelBound(q1, q2);
  TraceSpan span("check.containment");
  AnnotateWithRequest(span);
  ContainmentResult result = DecideOverChase(
      world, q2, options, level_bound, [&](ChaseOptions chase_options) {
        chase_options.record_cross_arcs = options.record_cross_arcs;
        return ChaseQuery(world, q1, chase_options);
      });
  if (span.active()) {
    span.Arg("resolution", ResolutionName(result.resolution))
        .Arg("level_bound", int64_t(result.level_bound))
        .Arg("chase_conjuncts", int64_t(result.chase.size()));
  }
  return result;
}

Result<ContainmentResult> CheckClassicalContainment(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));
  TraceSpan span("check.classical");
  AnnotateWithRequest(span);
  // The target is body(q1) itself, with q1's variables as values.
  FactIndex target;
  for (const Atom& atom : q1.body()) target.Insert(atom);
  ContainmentResult result;
  SearchAndSettle(world, q2, target, q1.head(), TripReason::kNone,
                  options.budget, AnchorDeadline(options.budget), result);
  return result;
}

Result<bool> CheckEquivalence(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentOptions& options) {
  Result<ContainmentResult> forward = CheckContainment(world, q1, q2, options);
  if (!forward.ok()) return forward.status();
  if (!forward->contained) return false;
  Result<ContainmentResult> backward = CheckContainment(world, q2, q1, options);
  if (!backward.ok()) return backward.status();
  return backward->contained;
}

Result<std::optional<size_t>> CheckUcqContainment(
    World& world, const ConjunctiveQuery& q,
    std::span<const ConjunctiveQuery> disjuncts,
    const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(q.Validate(world));

  // One chase serves all disjuncts; its depth must cover the largest
  // per-disjunct bound.
  int level_bound = 0;
  for (const ConjunctiveQuery& disjunct : disjuncts) {
    FLOQ_RETURN_IF_ERROR(disjunct.Validate(world));
    if (disjunct.arity() != q.arity()) {
      return InvalidArgumentError("UCQ disjunct arity mismatch");
    }
    level_bound = std::max(level_bound, PaperLevelBound(q, disjunct));
  }
  if (options.level_override >= 0) level_bound = options.level_override;

  const Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, &options.budget.cancel);
  ChaseResult chase = ChaseQuery(
      world, q, OneShotChaseOptions(options, level_bound, &chase_governor));
  if (chase.failed()) {
    // Unsatisfiable q is contained in any nonempty union.
    if (disjuncts.empty()) return std::optional<size_t>();
    return std::optional<size_t>(0);
  }
  const TripReason chase_trip =
      ChaseTripReason(chase.outcome(), chase_governor);
  if (chase_trip != TripReason::kNone) return UcqTripError(chase_trip, "chase");

  // All disjunct searches draw on one governor: the hom budget spans the
  // whole stage, not each disjunct.
  chase.FreezeConjuncts();
  ExecGovernor hom_governor(anchored, &options.budget.cancel,
                            options.budget.hom_step_budget);
  ExecGovernor* governor =
      options.budget.unlimited() ? nullptr : &hom_governor;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (SearchRenamedApart(world, disjuncts[i], chase.conjuncts(),
                           chase.head(), governor, /*stats=*/nullptr)
            .has_value()) {
      return std::optional<size_t>(i);
    }
  }
  if (hom_governor.tripped()) {
    return UcqTripError(hom_governor.trip(), "hom search");
  }
  return std::optional<size_t>();
}

Result<ContainmentResult> CheckContainmentUnderDependencies(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const DependencySet& dependencies, const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));

  // A weakly acyclic set's chase terminates and needs no level cap.
  const bool weakly_acyclic = IsWeaklyAcyclic(dependencies, world);
  if (!weakly_acyclic && options.level_override < 0) {
    return FailedPreconditionError(
        "dependency set is not weakly acyclic: the chase may not "
        "terminate; set ContainmentOptions::level_override for a sound "
        "(but possibly inconclusive) bounded check");
  }
  TraceSpan span("check.under_dependencies");
  AnnotateWithRequest(span);
  ContainmentResult result = DecideOverChase(
      world, q2, options, weakly_acyclic ? -1 : options.level_override,
      [&](const ChaseOptions& chase_options) {
        return GenericChase(world, q1, dependencies, chase_options);
      });
  // On a truncated chase of a non-weakly-acyclic set, "no homomorphism"
  // does not refute containment even when no resource budget tripped.
  if (result.resolution == Resolution::kNotContained) {
    result.conclusive = weakly_acyclic ||
                        result.chase.outcome() == ChaseOutcome::kCompleted;
  }
  return result;
}

Result<std::optional<size_t>> CheckUnionContainment(
    World& world, std::span<const ConjunctiveQuery> lhs,
    std::span<const ConjunctiveQuery> rhs,
    const ContainmentOptions& options) {
  for (size_t i = 0; i < lhs.size(); ++i) {
    Result<std::optional<size_t>> hit =
        CheckUcqContainment(world, lhs[i], rhs, options);
    if (!hit.ok()) return hit.status();
    if (!hit->has_value()) return std::optional<size_t>(i);
  }
  return std::optional<size_t>();
}

}  // namespace floq
