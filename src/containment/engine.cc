#include "containment/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <utility>

#include "containment/homomorphism.h"
#include "util/metrics.h"
#include "util/request_context.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace floq {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

// Per-query cache slot. `chase` is built by the registration probe (or,
// with the signature index off, the first time the query appears as a
// left-hand side) and reused — and deepened, never rebuilt — by every
// later pair.
struct ContainmentEngine::Entry {
  ConjunctiveQuery query;
  // The rhs pattern: variables renamed apart from every chase value (chase
  // conjuncts carry the chased query's variables as values; see the
  // matcher discipline note in DESIGN.md §4). Renamed once at
  // registration, shared read-only by all workers.
  ConjunctiveQuery renamed;
  std::optional<ResumableChase> chase;
  // Stage-0 prefilter signature, computed once at registration from the
  // probe chase (absent when use_signature_index is off).
  std::optional<ClosureSignature> signature;
};

namespace {

// Chase levels the registration-time signature probe materializes. A
// completed probe makes the closure signature exact; an inconclusive one
// falls back to the static Sigma_FL closure.
constexpr int kSignatureProbeLevels = 2;

}  // namespace

ContainmentEngine::ContainmentEngine(World& world,
                                     const BatchContainmentOptions& options)
    : world_(world), options_(options), sigma_(MakeSigmaFL(world)) {
  // Every pair is decided at its PaperLevelBound; a level override is for
  // the one-shot checks. Honouring one here would be inconsistent: the
  // registration probe already materializes kSignatureProbeLevels, so a
  // shallower cap would search signature-indexed pairs over a deeper
  // prefix than CheckContainment uses under the same options.
  FLOQ_CHECK_LT(options.containment.level_override, 0)
      << "ContainmentEngine decides at the Theorem 12 bound";
}

ContainmentEngine::~ContainmentEngine() = default;

void ContainmentEngine::RunParallel(size_t count,
                                    const std::function<void(size_t)>& fn) {
  const size_t jobs = options_.jobs == 0 ? ThreadPool::DefaultThreads()
                                         : size_t(options_.jobs);
  if (jobs > 1 && count > 1) {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(jobs);
    return ParallelFor(*pool_, count, fn);
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

Result<size_t> ContainmentEngine::AddQuery(const ConjunctiveQuery& query) {
  return AddQueries({&query, 1});
}

Result<size_t> ContainmentEngine::AddQueries(
    std::span<const ConjunctiveQuery> queries) {
  for (const ConjunctiveQuery& query : queries) {
    FLOQ_RETURN_IF_ERROR(query.Validate(world_));
  }
  // Renaming apart interns fresh variables in the World: sequential.
  const size_t first = entries_.size();
  for (const ConjunctiveQuery& query : queries) {
    auto entry = std::make_unique<Entry>();
    entry->query = query;
    entry->renamed = query.RenameApart(world_);
    entries_.push_back(std::move(entry));
  }
  const ContainmentOptions& copts = options_.containment;
  if (!copts.use_signature_index) return first;
  ChaseOptions chase_options;
  chase_options.max_atoms = copts.max_chase_atoms;
  // The governors borrow the token, so it must outlive them.
  const CancellationToken engine_token = cancel_source_.token();
  std::vector<ExecGovernor> governors(queries.size());
  // Everything below only reads the World and sigma_ (the probe's nulls are
  // local to its handle), so the entries register independently.
  RunParallel(queries.size(), [&](size_t k) {
    // The probe IS the pair pipeline's cached chase handle: whatever it
    // materializes here is reused — and deepened, never rebuilt — by every
    // later pair with this query on the left. It runs under the same
    // governed budget as a pair's chase stage, so a runaway query cannot
    // stall registration; an inconclusive probe just degrades the
    // signature to the static closure.
    Entry& entry = *entries_[first + k];
    ExecGovernor& governor = governors[k];
    governor = MakeChaseGovernor(copts.budget);
    governor.AddCancellation(&engine_token);
    entry.chase.emplace(world_, sigma_, entry.query, chase_options);
    const ChaseResult& probe =
        entry.chase->EnsureLevel(kSignatureProbeLevels, &governor);
    entry.signature = ComputeClosureSignature(entry.query, probe);
  });
  for (const ExecGovernor& governor : governors) FoldGovernorMetrics(governor);
  stats_.chases_run += governors.size();
  return first;
}

size_t ContainmentEngine::query_count() const { return entries_.size(); }

const ConjunctiveQuery& ContainmentEngine::query(size_t id) const {
  FLOQ_CHECK_LT(id, entries_.size());
  return entries_[id]->query;
}

const ChaseResult* ContainmentEngine::chase_of(size_t id) const {
  FLOQ_CHECK_LT(id, entries_.size());
  const Entry& entry = *entries_[id];
  return entry.chase.has_value() ? &entry.chase->result() : nullptr;
}

const ClosureSignature* ContainmentEngine::signature_of(size_t id) const {
  FLOQ_CHECK_LT(id, entries_.size());
  const Entry& entry = *entries_[id];
  return entry.signature.has_value() ? &*entry.signature : nullptr;
}

namespace {

// Records a pair's verdict under governor.h's one settle rule.
void Settle(PairVerdict& verdict, bool found, TripReason chase_trip,
            TripReason hom_trip = TripReason::kNone) {
  verdict.resolution =
      SettleResolution(found, chase_trip, hom_trip, &verdict.unknown_reason);
  verdict.contained = verdict.resolution == Resolution::kContained;
}

// Writes the elapsed milliseconds since construction into *out at scope
// exit — times a per-pair stage across its early `continue`s / `return`s.
class StageTimer {
 public:
  explicit StageTimer(double* out) : out_(out) {}
  ~StageTimer() { *out_ = MsSince(start_); }

 private:
  double* out_;
  SteadyClock::time_point start_ = SteadyClock::now();
};

}  // namespace

std::vector<int> ContainmentEngine::Arities() const {
  std::vector<int> arities(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    arities[i] = entries_[i]->query.arity();
  }
  return arities;
}

void ContainmentEngine::Cancel() { cancel_source_.Cancel(); }

void ContainmentEngine::ResetCancel() { cancel_source_.Reset(); }

template <class ForEachInSlice>
Status ContainmentEngine::CheckPairsCore(size_t slices,
                                         ForEachInSlice&& for_each_in_slice,
                                         SparseVerdicts& out,
                                         std::vector<size_t>* positions) {
  const ContainmentOptions& copts = options_.containment;
  const ResourceBudget& budget = copts.budget;
  // Governors borrow this snapshot: copying the token per pair would
  // bounce its reference count between workers. ResetCancel (which swaps
  // the source's flag) is only legal between batches.
  const CancellationToken engine_token = cancel_source_.token();
  const size_t num_queries = entries_.size();

  TraceSpan batch_span("engine.check_pairs");
  AnnotateWithRequest(batch_span);
  // Snapshot for the per-batch metrics fold at the end (stats_ is
  // cumulative across batches).
  const BatchStats stats_before = stats_;

  // ---- stage 0: signature prefilter, emitting the survivor list ---------
  //
  // A failed subset test (signature.h) is a sound definite kNotContained:
  // the pair skips both expensive stages entirely and never enters the
  // survivor list, so every later phase — chase, fan-out, accounting —
  // iterates only the survivors. Slices run in parallel, in a count pass
  // and then a fill pass that writes each slice's survivors at its offset
  // in the exactly-sized out.pairs. Each count pass has its
  // own governor over the stage's one anchored deadline. Once it trips,
  // pruning STOPS for the rest of the slice and every remaining pair
  // survives into the governed chase/hom stages, which degrade it to
  // kUnknown: a tripped stage-0 deadline must never manufacture a
  // definite verdict. The fill pass prunes only among the `tested`
  // leading candidates, replaying the count pass.
  const bool filter = copts.use_signature_index;
  std::optional<TraceSpan> sig_span;
  if (filter) {
    sig_span.emplace("engine.signature_stage");
    AnnotateWithRequest(*sig_span);
  }
  const SteadyClock::time_point sig_start = SteadyClock::now();
  const Deadline sig_deadline = AnchorDeadline(budget);
  // Dense per-query keys holding MayContain's cheapest tests — the
  // constant and gram Bloom masks and the first predicate word — so most
  // pairs are settled from one contiguous array; the rest take MayContain
  // itself.
  struct SignatureKey {
    const ClosureSignature* sig = nullptr;
    bool prunable = false;  // may discharge pairs with this query on the left
    uint64_t closure_constants = 0, closure_grams = 0,
             closure_predicates = 0;                         // as lhs
    uint64_t constants = 0, grams = 0, predicates = 0;       // as rhs
  };
  std::vector<SignatureKey> keys(filter ? num_queries : 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!entries_[i]->signature.has_value()) continue;
    const ClosureSignature& sig = *entries_[i]->signature;
    keys[i] = {&sig,
               sig.prunable,
               sig.closure_constant_mask,
               sig.closure_gram_mask,
               sig.closure_predicates.word(0),
               sig.base.constant_mask,
               sig.base.gram_mask,
               sig.base.predicates.word(0)};
  }
  auto discharged = [&](size_t lhs, size_t rhs) {
    const SignatureKey& l = keys[lhs];
    const SignatureKey& r = keys[rhs];
    if (!l.prunable || r.sig == nullptr) return false;
    return ((r.constants & ~l.closure_constants) |
            (r.grams & ~l.closure_grams) |
            (r.predicates & ~l.closure_predicates)) != 0 ||
           !MayContain(*l.sig, r.sig->base);
  };
  // Per-slice counts; the prefix sum below turns `candidates` and
  // `survivors` into the slice's first candidate ordinal and output index.
  struct SliceCount {
    size_t candidates = 0, survivors = 0, tested = 0;
  };
  std::vector<SliceCount> counts(slices);
  RunParallel(slices, [&](size_t r) {
    ExecGovernor governor(sig_deadline, &budget.cancel);
    governor.AddCancellation(&engine_token);
    bool pruning = filter;
    SliceCount count;  // local: neighbouring slices share cache lines
    for_each_in_slice(r, [&](size_t lhs, size_t rhs) {
      // A subset test is a few word ops; polling the governor every pair
      // would double the stage's cost. A 64-pair stride still bounds the
      // deadline overshoot to a couple of microseconds — and each slice's
      // first pair is polled, so an already-tripped budget prunes nothing.
      if (pruning && (count.candidates & 63) == 0 && !governor.CheckNow()) {
        pruning = false;
      }
      count.tested += pruning;
      count.survivors += !(pruning && discharged(lhs, rhs));
      ++count.candidates;
    });
    counts[r] = count;
    if (filter) FoldGovernorMetrics(governor);
  });
  size_t candidates = 0;
  size_t survivors = 0;
  for (SliceCount& count : counts) {
    candidates += std::exchange(count.candidates, candidates);
    survivors += std::exchange(count.survivors, survivors);
  }
  // Verdicts before pairs: in repeated batches glibc then reuses the same
  // heap slots for both; the other order cost ~8 MB of peak RSS.
  std::vector<PairVerdict>& verdicts = out.verdicts;
  verdicts.assign(survivors, PairVerdict{});
  std::vector<std::pair<size_t, size_t>>& pairs = out.pairs;
  pairs.resize(survivors);
  if (positions != nullptr) positions->resize(survivors);
  RunParallel(slices, [&](size_t r) {
    const SliceCount& count = counts[r];
    size_t next = count.survivors;
    size_t k = 0;
    for_each_in_slice(r, [&](size_t lhs, size_t rhs) {
      const size_t ordinal = k++;
      if (ordinal < count.tested && discharged(lhs, rhs)) return;
      pairs[next] = {lhs, rhs};
      if (positions != nullptr) (*positions)[next] = count.candidates + ordinal;
      ++next;
    });
  });
  if (filter) {
    stats_.pruned_pairs += candidates - survivors;
    stats_.signature_us += MsSince(sig_start) * 1000.0;
    if (sig_span->active()) {
      sig_span->Arg("pairs", int64_t(candidates))
          .Arg("pruned", int64_t(candidates - survivors));
    }
    sig_span.reset();
  }
  if (batch_span.active()) {
    batch_span.Arg("pairs", int64_t(candidates));
  }
  // Per-survivor phase flags.
  constexpr uint8_t kNeedsSearch = 1;  // the hom phase searches this pair
  constexpr uint8_t kChaseTimed = 2;   // its chase stage ran governed, timed
  std::vector<uint8_t> phase(survivors, 0);
  // Why this pair's chase prefix cannot refute containment (kNone when it
  // can): consumed by the hom phase to settle negatives.
  std::vector<TripReason> chase_trips(survivors, TripReason::kNone);

  // ---- sequential phase: build / deepen the shared targets ---------------
  //
  // Everything that mutates a cache entry happens here, on the calling
  // thread. The workers below only read. Each pair with chase work to do
  // gets its own governor with a freshly anchored timeout (per-pair
  // isolation): a runaway chase trips its own deadline, and the next pair
  // starts with a full budget again.
  ChaseOptions chase_options;
  chase_options.max_atoms = copts.max_chase_atoms;
  // Routes a pair whose lhs chase is materialized: a failed chase settles
  // it, any other queues its search.
  auto after_chase = [&](size_t s, const ChaseResult& chase,
                         TripReason trip) {
    if (chase.failed()) {
      // lhs has no answers on any database satisfying Sigma_FL: contained
      // in every query of the same arity, no search needed.
      Settle(verdicts[s], /*found=*/true, TripReason::kNone);
      verdicts[s].lhs_unsatisfiable = true;
      return;
    }
    // A truncated prefix (atom budget, or this pair's chase deadline) is
    // still worth searching: a homomorphism into it is a sound positive,
    // and the hom stage anchors its own fresh timeout slice.
    chase_trips[s] = trip;
    phase[s] |= kNeedsSearch;
  };
  for (size_t s = 0; s < survivors; ++s) {
    const auto& [lhs, rhs] = pairs[s];
    Entry& l = *entries_[lhs];
    PairVerdict& verdict = verdicts[s];
    ++stats_.chase_requests;
    const int level = PaperLevelBound(l.query, entries_[rhs]->query);
    if (l.chase.has_value() && l.chase->Covers(level) &&
        !engine_token.cancelled() && !budget.cancel.cancelled() &&
        !budget.deadline.Expired()) {
      // Cache-hit fast path: EnsureLevel would be a const read, so there
      // is no chase to govern, time or trace. Cancellation and an expired
      // absolute deadline take the governed path below, which degrades
      // the pair exactly as it always has.
      ++stats_.chase_cache_hits;
      verdict.level_bound = level;
      const ChaseResult& chase = l.chase->result();
      after_chase(s, chase, ChaseTripReason(chase.outcome(), ExecGovernor()));
      continue;
    }
    TraceSpan span("engine.chase_stage");
    AnnotateWithRequest(span);
    if (span.active()) {
      span.Arg("lhs", int64_t(lhs)).Arg("rhs", int64_t(rhs));
    }
    StageTimer timer(&verdict.chase_ms);
    phase[s] = kChaseTimed;
    ExecGovernor chase_governor = MakeChaseGovernor(budget);
    chase_governor.AddCancellation(&engine_token);
    if (!chase_governor.CheckNow()) {
      // Already cancelled (or the absolute deadline has passed) before
      // this pair started: skip its chase entirely.
      FoldGovernorMetrics(chase_governor);
      Settle(verdict, /*found=*/false, chase_governor.trip());
      continue;
    }
    verdict.level_bound = level;

    if (!l.chase.has_value()) {
      ++stats_.chases_run;
      l.chase.emplace(world_, sigma_, l.query, chase_options);
    } else {
      ++stats_.chase_cache_hits;
    }
    uint64_t deepenings_before = l.chase->deepen_count();
    const ChaseResult& chase = l.chase->EnsureLevel(level, &chase_governor);
    stats_.chase_deepenings += l.chase->deepen_count() - deepenings_before;
    FoldGovernorMetrics(chase_governor);
    if (span.active()) {
      span.Arg("level", int64_t(level))
          .Arg("outcome", ChaseOutcomeName(chase.outcome()));
    }
    const TripReason trip = ChaseTripReason(chase.outcome(), chase_governor);
    if (trip == TripReason::kCancelled) {
      Settle(verdict, /*found=*/false, trip);
      continue;
    }
    after_chase(s, chase, trip);
  }

  // Freeze every handle: from here on the chase artifacts are immutable
  // and may be shared across threads (asserted by ResumableChase).
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->chase.has_value()) entry->chase->Freeze();
  }

  // ---- parallel phase: stateless homomorphism searches -------------------
  //
  // Workers read frozen chase results directly (never EnsureLevel — an
  // interrupted frozen handle must not resume here) and run under a
  // per-pair hom governor with its own anchored timeout. A governor that
  // has already tripped (a cancelled batch, an expired deadline) skips the
  // search, and the pair settles as if the search had been cut off.
  const SteadyClock::time_point fanout_start = SteadyClock::now();
  auto run_pair = [&](size_t s) {
    if ((phase[s] & kNeedsSearch) == 0) return;
    PairVerdict& verdict = verdicts[s];
    verdict.queue_wait_ms = MsSince(fanout_start);
    const auto& [lhs, rhs] = pairs[s];
    TraceSpan span("engine.hom_stage");
    AnnotateWithRequest(span);
    {
      StageTimer timer(&verdict.hom_ms);
      ExecGovernor hom_governor(AnchorDeadline(budget), &budget.cancel,
                                budget.hom_step_budget);
      hom_governor.AddCancellation(&engine_token);
      const ChaseResult& target = entries_[lhs]->chase->result();
      const bool found =
          hom_governor.CheckNow() &&
          FindQueryHomomorphism(entries_[rhs]->renamed, target.conjuncts(),
                                target.head(), &verdict.hom_stats,
                                &hom_governor)
              .has_value();
      FoldGovernorMetrics(hom_governor);
      Settle(verdict, found, chase_trips[s], hom_governor.trip());
    }
    if (span.active()) {
      span.Arg("lhs", int64_t(lhs))
          .Arg("rhs", int64_t(rhs))
          .Arg("resolution", ResolutionName(verdict.resolution));
      if (verdict.resolution == Resolution::kUnknown) {
        span.Arg("trip", TripReasonName(verdict.unknown_reason));
      }
    }
  };

  RunParallel(survivors, run_pair);

  // The fan-out has joined; a later CheckPairs call on this engine may
  // legally deepen the handles again.
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->chase.has_value()) entry->chase->Thaw();
  }

  // Pruned pairs ran neither stage and are not in the survivor list:
  // nothing to record, and folding their zero times in would deflate
  // every mean.
  stats_.pairs_checked += candidates;
  const bool metrics = MetricsRegistry::enabled();
  for (size_t s = 0; s < survivors; ++s) {
    const PairVerdict& verdict = verdicts[s];
    if (verdict.resolution == Resolution::kUnknown) {
      // Degraded pairs: their search was cut off mid-flight, so their
      // effort and stage times stay out of the throughput aggregates
      // (hom / chase_stage / hom_stage / queue_wait) and land in their
      // own bucket instead.
      stats_.hom_degraded.Accumulate(verdict.hom_stats);
      ++stats_.unknown_pairs;
      if (verdict.unknown_reason == TripReason::kDeadlineExceeded) {
        ++stats_.timed_out_pairs;
      } else if (verdict.unknown_reason == TripReason::kCancelled) {
        ++stats_.cancelled_pairs;
      }
      continue;
    }
    stats_.hom.Accumulate(verdict.hom_stats);
    if ((phase[s] & kChaseTimed) != 0) {
      stats_.chase_stage.Record(verdict.chase_ms);
    }
    if ((phase[s] & kNeedsSearch) != 0) {
      stats_.hom_stage.Record(verdict.hom_ms);
      stats_.queue_wait.Record(verdict.queue_wait_ms);
    }
    if (metrics) {
      MetricsRegistry& registry = MetricsRegistry::Get();
      static Histogram& chase_us = registry.histogram("engine.chase_stage_us");
      static Histogram& hom_us = registry.histogram("engine.hom_stage_us");
      static Histogram& wait_us = registry.histogram("engine.queue_wait_us");
      if ((phase[s] & kChaseTimed) != 0) {
        chase_us.Record(uint64_t(verdict.chase_ms * 1000.0));
      }
      if ((phase[s] & kNeedsSearch) != 0) {
        hom_us.Record(uint64_t(verdict.hom_ms * 1000.0));
        wait_us.Record(uint64_t(verdict.queue_wait_ms * 1000.0));
      }
    }
  }
  if (metrics) {
    MetricsRegistry& registry = MetricsRegistry::Get();
    static Counter& pairs_checked = registry.counter("engine.pairs_checked");
    static Counter& pruned_pairs = registry.counter("engine.pruned_pairs");
    static Counter& unknown = registry.counter("engine.unknown_pairs");
    static Counter& requests = registry.counter("engine.chase_requests");
    static Counter& cache_hits = registry.counter("engine.chase_cache_hits");
    static Counter& chases = registry.counter("engine.chases_run");
    static Counter& deepenings = registry.counter("engine.chase_deepenings");
    auto fold = [](Counter& c, uint64_t before, uint64_t after) {
      if (after > before) c.Add(after - before);
    };
    fold(pairs_checked, stats_before.pairs_checked, stats_.pairs_checked);
    fold(pruned_pairs, stats_before.pruned_pairs, stats_.pruned_pairs);
    fold(unknown, stats_before.unknown_pairs, stats_.unknown_pairs);
    if (filter && candidates > 0) {
      static Histogram& sig_us =
          registry.histogram("engine.signature_stage_us");
      sig_us.Record(
          uint64_t(stats_.signature_us - stats_before.signature_us));
    }
    fold(requests, stats_before.chase_requests, stats_.chase_requests);
    fold(cache_hits, stats_before.chase_cache_hits, stats_.chase_cache_hits);
    fold(chases, stats_before.chases_run, stats_.chases_run);
    fold(deepenings, stats_before.chase_deepenings, stats_.chase_deepenings);
  }
  return Status::Ok();
}

Result<std::vector<PairVerdict>> ContainmentEngine::CheckPairs(
    std::span<const std::pair<size_t, size_t>> pairs) {
  // Validate against dense per-query arities: chasing pointers through
  // entries_ for every pair of a large batch costs more than the whole
  // signature stage.
  const std::vector<int> arities = Arities();
  const size_t num_queries = arities.size();
  for (const auto& [lhs, rhs] : pairs) {
    if (lhs >= num_queries || rhs >= num_queries) {
      return InvalidArgumentError("pair refers to an unregistered query id");
    }
    if (arities[lhs] != arities[rhs]) {
      return InvalidArgumentError(
          StrCat("containment requires equal arities; got ",
                 arities[lhs], " and ", arities[rhs]));
    }
  }
  // Stage 0 runs over fixed-size slices of the request.
  constexpr size_t kSlice = 256;
  SparseVerdicts sparse;
  std::vector<size_t> positions;
  FLOQ_RETURN_IF_ERROR(CheckPairsCore(
      (pairs.size() + kSlice - 1) / kSlice,
      [&](size_t slice, auto&& visit) {
        const size_t end = std::min(pairs.size(), (slice + 1) * kSlice);
        for (size_t k = slice * kSlice; k < end; ++k) {
          visit(pairs[k].first, pairs[k].second);
        }
      },
      sparse, &positions));
  // Every requested pair the core did not return was pruned in stage 0.
  PairVerdict pruned;
  pruned.pruned = true;
  std::vector<PairVerdict> verdicts(pairs.size(), pruned);
  for (size_t s = 0; s < positions.size(); ++s) {
    verdicts[positions[s]] = sparse.verdicts[s];
  }
  return verdicts;
}

Result<SparseVerdicts> ContainmentEngine::CheckAllSparse() {
  // Cross-arity pairs are never candidates: containment requires equal
  // arities, so they are not contained and count as neither checked nor
  // pruned (ContainmentIndex::Insert skips them the same way).
  const std::vector<int> arities = Arities();
  const size_t n = arities.size();
  SparseVerdicts sparse;
  // Stage 0 runs over lhs rows.
  FLOQ_RETURN_IF_ERROR(CheckPairsCore(
      n,
      [&](size_t i, auto&& visit) {
        for (size_t j = 0; j < n; ++j) {
          if (i != j && arities[i] == arities[j]) visit(i, j);
        }
      },
      sparse, nullptr));
  return sparse;
}

Result<std::vector<std::vector<PairVerdict>>> ContainmentEngine::CheckAll() {
  Result<SparseVerdicts> sparse = CheckAllSparse();
  if (!sparse.ok()) return sparse.status();
  const std::vector<int> arities = Arities();
  const size_t n = arities.size();
  // Unlisted same-arity cells were pruned; the diagonal and cross-arity
  // cells stay defaulted.
  PairVerdict pruned;
  pruned.pruned = true;
  std::vector<std::vector<PairVerdict>> matrix(n);
  for (size_t i = 0; i < n; ++i) {
    matrix[i].assign(n, pruned);
    for (size_t j = 0; j < n; ++j) {
      if (i == j || arities[i] != arities[j]) matrix[i][j] = PairVerdict{};
    }
  }
  for (size_t s = 0; s < sparse->pairs.size(); ++s) {
    const auto& [i, j] = sparse->pairs[s];
    matrix[i][j] = sparse->verdicts[s];
  }
  return matrix;
}

}  // namespace floq
