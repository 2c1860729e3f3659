#ifndef FLOQ_CONTAINMENT_ENGINE_H_
#define FLOQ_CONTAINMENT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "containment/signature.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// Batch containment over a shared query set. Every realistic workload —
// the classify taxonomy, view-based rewriting, the bench matrix — asks
// O(n^2) containment questions over the *same* n queries, and the pairwise
// CheckContainment re-materializes chase_Sigma(q1) from scratch for every
// pair. The engine instead keeps one memoized, resumable chase handle per
// registered query, deepens it lazily to the largest Theorem 12 bound
// |q2| * 2|q1| any requested pair demands (a deeper chase prefix is still
// a universal-model prefix, so homomorphism verdicts are unchanged), and
// then fans the pairwise homomorphism searches out across a thread pool.
//
// With options.containment.use_signature_index on (the default), a stage-0
// signature filter runs first: registration computes a closure signature
// per query (signature.h) from a bounded probe chase, and any pair whose
// predicate/constant subset test fails is discharged as a definite
// kNotContained before either expensive stage — typically the vast
// majority of the N^2 pairs (DESIGN.md §13). Only the survivors go on:
// every later phase iterates a compact survivor list, and
// CheckAllSparse returns just those verdicts.
//
// Concurrency model (see DESIGN.md §8): the World writes — renaming
// queries apart and the engine's one Sigma_FL — happen on the calling
// thread. Registration probes run on the engine's pool (a chase handle only
// reads the World and numbers its nulls locally); per-pair deepening is
// sequential. The handles are then frozen (ResumableChase::Freeze) and
// shared read-only with stateless workers that only perform const
// FactIndex lookups. n queries cost n chases instead of n(n-1).

namespace floq {

class ThreadPool;

struct BatchContainmentOptions {
  /// Per-pair semantics: the chase atom budget and the resource budget
  /// (containment.budget). Every pair is decided at its Theorem 12 bound,
  /// so containment.level_override must stay unset (the constructor
  /// FLOQ_CHECKs it). The budget is applied *per pair, per stage*: each
  /// pair's chase stage and hom stage re-anchor containment.budget's
  /// timeout_ms, so one runaway pair exhausts its own slice (at most
  /// ~2x timeout_ms) and every other pair still gets its full share. The
  /// absolute deadline and cancellation token are shared batch-wide.
  ContainmentOptions containment;
  /// Worker threads for registration probes, the stage-0 signature filter
  /// and the homomorphism fan-out. 0 = hardware concurrency; 1 = run
  /// everything on the calling thread.
  int jobs = 0;
};

/// Wall-clock accounting for one pipeline stage across a batch. Only
/// *decided* pairs are recorded: a cancelled or timed-out pair's time
/// reflects where its budget tripped, not the cost of the work, and
/// folding it in would skew every throughput-style aggregate. Degraded
/// pairs are counted separately (unknown_pairs / timed_out_pairs /
/// cancelled_pairs and BatchStats::hom_degraded).
struct StageMetrics {
  uint64_t samples = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;

  void Record(double ms) {
    ++samples;
    total_ms += ms;
    if (ms > max_ms) max_ms = ms;
  }
  double mean_ms() const {
    return samples == 0 ? 0.0 : total_ms / double(samples);
  }
};

/// Cache and fan-out accounting for one engine.
struct BatchStats {
  /// One request per checked pair (the pair's left-hand side needs a
  /// materialized chase).
  uint64_t chase_requests = 0;
  /// Requests served by a handle built for an earlier pair.
  uint64_t chase_cache_hits = 0;
  /// Distinct queries chased (cache misses; each query is chased once).
  uint64_t chases_run = 0;
  /// Times an existing handle had to resume its chase to a deeper level.
  uint64_t chase_deepenings = 0;
  uint64_t pairs_checked = 0;
  /// Pairs discharged by the stage-0 signature filter: definite
  /// kNotContained with zero chase or hom work (never counted in
  /// chase_requests). pruned_pairs + chase_requests == pairs checked when
  /// the filter is on.
  uint64_t pruned_pairs = 0;
  /// Cumulative stage-0 wall time in microseconds: both passes of the
  /// signature subset tests plus sizing the survivor and verdict arrays
  /// (registration-time probe chases are accounted to chases_run).
  double signature_us = 0.0;
  /// Pairs whose verdict degraded to Resolution::kUnknown (any reason).
  uint64_t unknown_pairs = 0;
  /// Unknown pairs whose reason was a tripped deadline.
  uint64_t timed_out_pairs = 0;
  /// Unknown pairs whose reason was cancellation (engine or user token).
  uint64_t cancelled_pairs = 0;
  /// Aggregated homomorphism search effort across *decided* pairs.
  MatchStats hom;
  /// Hom effort of pairs that degraded to Resolution::kUnknown — kept out
  /// of `hom` so decided-pair averages are not polluted by searches that
  /// were cut off mid-flight.
  MatchStats hom_degraded;
  /// Per-stage wall time, decided pairs only (see StageMetrics).
  /// chase_stage records only pairs whose chase stage ran the governed
  /// path: a cache hit that needs no deepening is neither governed nor
  /// timed.
  StageMetrics chase_stage;
  StageMetrics hom_stage;
  /// Delay between the hom fan-out opening and each pair's search actually
  /// starting on a worker (scheduling / queueing latency).
  StageMetrics queue_wait;
};

/// Verdict for one ordered pair lhs ⊆ rhs.
struct PairVerdict {
  /// Always equals (resolution == Resolution::kContained).
  bool contained = false;
  /// Three-valued verdict: kUnknown means this pair's resource budget
  /// tripped before the pair was decided (the rest of the batch is
  /// unaffected); `unknown_reason` names the budget that tripped first.
  Resolution resolution = Resolution::kNotContained;
  TripReason unknown_reason = TripReason::kNone;
  /// The stage-0 signature filter discharged this pair (a sound definite
  /// kNotContained; see signature.h): no chase or hom stage ran, and
  /// chase_ms / hom_ms / hom_stats stay zero.
  bool pruned = false;
  /// Containment holds vacuously: chase(lhs) failed (rho_4 equated two
  /// distinct constants), so lhs is unsatisfiable under Sigma_FL.
  bool lhs_unsatisfiable = false;
  /// Level the lhs chase was materialized to when searching (-1 when the
  /// pair's budget tripped before its chase stage).
  int level_bound = -1;
  /// Search effort of this pair's homomorphism search.
  MatchStats hom_stats;
  /// Wall-clock stage costs for this pair. chase_ms covers the EnsureLevel
  /// call (zero on a cache hit that needs no deepening); hom_ms the
  /// homomorphism search; queue_wait_ms the delay before a worker picked
  /// the pair up. All zero for stages the pair never reached.
  double chase_ms = 0.0;
  double hom_ms = 0.0;
  double queue_wait_ms = 0.0;
};

/// The sparse form of an all-pairs batch (ContainmentEngine::
/// CheckAllSparse): only the ordered pairs that survived the stage-0
/// signature filter, with their verdicts. Every same-arity pair i != j
/// that is not listed was pruned — a definite kNotContained with no chase
/// or hom work. Cross-arity pairs are never listed: containment requires
/// equal arities, so they are not contained and were never checked.
struct SparseVerdicts {
  /// Surviving (lhs, rhs) id pairs in ascending (lhs, rhs) order.
  std::vector<std::pair<size_t, size_t>> pairs;
  /// verdicts[s] answers query(pairs[s].first) ⊆ query(pairs[s].second).
  std::vector<PairVerdict> verdicts;
};

class ContainmentEngine {
 public:
  explicit ContainmentEngine(World& world,
                             const BatchContainmentOptions& options = {});
  ~ContainmentEngine();

  ContainmentEngine(const ContainmentEngine&) = delete;
  ContainmentEngine& operator=(const ContainmentEngine&) = delete;

  /// Registers a query and returns its dense id (the cache key: chases are
  /// memoized per id). Fails if the query is malformed. Registration
  /// renames the query apart eagerly, so later checks share one renamed
  /// copy instead of re-renaming per pair. Same as AddQueries({query}).
  Result<size_t> AddQuery(const ConjunctiveQuery& query);

  /// Registers `queries` under consecutive ids and returns the first;
  /// registers none if any is malformed. The probe chases and signatures
  /// run on the engine's pool, with the same results as registering one
  /// query at a time.
  Result<size_t> AddQueries(std::span<const ConjunctiveQuery> queries);

  size_t query_count() const;
  const ConjunctiveQuery& query(size_t id) const;

  /// Decides lhs ⊆_Sigma rhs for every requested (lhs, rhs) id pair.
  /// Verdicts align with `pairs`; pruned pairs carry `pruned`. Fails on
  /// arity mismatches. Resource trips never fail the batch: the affected
  /// pair's verdict becomes Resolution::kUnknown with a typed reason and
  /// every other pair still gets a definite answer.
  Result<std::vector<PairVerdict>> CheckPairs(
      std::span<const std::pair<size_t, size_t>> pairs);

  /// Decides every ordered pair i != j of equal arity and returns only the
  /// pairs that survived the signature filter (see SparseVerdicts). The
  /// batch costs time and memory in proportion to the survivors, not to
  /// the n(n-1) pairs; stats() still counts every candidate in
  /// pairs_checked and the discharged ones in pruned_pairs.
  Result<SparseVerdicts> CheckAllSparse();

  /// The full matrix, expanded from CheckAllSparse: verdicts[i][j] answers
  /// query(i) ⊆ query(j) for all i != j, with `pruned` set on the cells the
  /// signature filter discharged. The diagonal (containment is reflexive)
  /// and cross-arity cells are left defaulted.
  Result<std::vector<std::vector<PairVerdict>>> CheckAll();

  /// The materialized chase of a query, if one was built (nullptr before
  /// any check used `id` as a left-hand side). With the signature index
  /// on, registration already runs a bounded probe chase, so this is
  /// non-null for every id right after AddQuery.
  const ChaseResult* chase_of(size_t id) const;

  /// The closure signature computed at registration, or nullptr when
  /// options.containment.use_signature_index is off. Incremental callers
  /// (ContainmentIndex) use it to prefilter candidate pairs before ever
  /// building a CheckPairs batch.
  const ClosureSignature* signature_of(size_t id) const;

  const BatchStats& stats() const { return stats_; }

  /// Requests cooperative cancellation of any in-flight CheckPairs /
  /// CheckAll. Safe to call from another thread; the batch returns
  /// promptly (within one governor stride per worker) with every
  /// unfinished pair marked Resolution::kUnknown(kCancelled) and every
  /// already-finished pair keeping its definite verdict. Cancellation
  /// latches: later batches also return kCancelled until ResetCancel().
  void Cancel();
  bool cancel_requested() const { return cancel_source_.cancel_requested(); }
  /// Re-arms the engine after a Cancel(). Must not race an in-flight
  /// batch; call it between batches only.
  void ResetCancel();

 private:
  struct Entry;

  /// The batch pipeline behind CheckPairs and CheckAllSparse. The
  /// candidates come in `slices` consecutive slices:
  /// `for_each_in_slice(r, visit)` calls visit(lhs, rhs) once per candidate
  /// of slice r, in order, and must be safe to call concurrently for
  /// different slices. Stage 0 writes the survivors to `out.pairs` in
  /// candidate order (and, when `positions` is non-null, each survivor's
  /// candidate ordinal), and every later phase iterates only the
  /// survivors. Instantiated only in engine.cc.
  template <class ForEachInSlice>
  Status CheckPairsCore(size_t slices, ForEachInSlice&& for_each_in_slice,
                        SparseVerdicts& out, std::vector<size_t>* positions);

  /// Dense per-query arities, indexed by id.
  std::vector<int> Arities() const;

  /// Runs fn(0) .. fn(count - 1) on the engine's pool (created on first
  /// use), or inline when jobs is 1 or there is only one index.
  void RunParallel(size_t count, const std::function<void(size_t)>& fn);

  World& world_;
  BatchContainmentOptions options_;
  // Shared by every chase handle (see MakeSigmaFL).
  const SigmaFL sigma_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unique_ptr<ThreadPool> pool_;
  BatchStats stats_;
  CancellationSource cancel_source_;
};

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_ENGINE_H_
