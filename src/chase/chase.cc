#include "chase/chase.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "chase/term_union_find.h"
#include "datalog/evaluator.h"
#include "datalog/match.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq {

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kCompleted: return "COMPLETED";
    case ChaseOutcome::kLevelCapped: return "LEVEL_CAPPED";
    case ChaseOutcome::kBudgetExceeded: return "BUDGET_EXCEEDED";
    case ChaseOutcome::kInterrupted: return "INTERRUPTED";
    case ChaseOutcome::kFailed: return "FAILED";
  }
  return "?";
}

namespace {

// A TGD application found during a collection pass: the instantiated head,
// the conjuncts the rule body mapped onto, and the level the new conjunct
// would get (Definition 3(3)).
struct PendingTgd {
  RuleId id;
  Atom head;
  std::vector<uint32_t> parents;
  int level;
};

// A rho_5 application: mandatory(attr, object) with no data(object, attr, ·)
// conjunct present.
struct PendingExistential {
  Term object;
  Term attr;
  uint32_t parent;
  int level;
};

}  // namespace

// Reads `world` only (rho_4's chase order) and numbers rho_5 nulls from
// `first_null` upwards; the caller decides whether the World's supply is
// advanced past them.
class ChaseEngine {
 public:
  ChaseEngine(const World& world, const SigmaFL& sigma,
              const ChaseOptions& options, uint32_t first_null)
      : world_(world),
        options_(options),
        sigma_(sigma),
        next_null_(first_null) {}

  void Run(const ConjunctiveQuery& query, ExecGovernor* governor = nullptr) {
    TraceSpan span("chase.run");
    const ChaseStats before = result_.stats_;
    // Initial conjuncts: body(q) at level 0. Inserted before the governor
    // is armed: a resumed run cannot re-seed them, so they must all be
    // present before any trip can stop the engine. The head comes first:
    // a body larger than the atom budget stops the run mid-seed, and the
    // truncated prefix is still searched against the head.
    result_.head_ = query.head();
    for (const Atom& atom : query.body()) {
      if (!InsertNode(atom, 0, kRho0, {})) return Finish(span, before);
    }
    SetGovernor(governor);
    Advance();
    Finish(span, before);
  }

  /// Resumes a kLevelCapped chase with a deeper level cap, or an
  /// interrupted chase at any level. Instances that were deferred beyond
  /// the old cap (or lost when a governor tripped mid-batch) are no longer
  /// in any delta window, so the first resumed collection rescans the
  /// whole instance. No-op on completed, failed, or budget-exhausted
  /// chases. `governor`, when non-null, bounds this resume only.
  void Deepen(int new_max_level, ExecGovernor* governor = nullptr) {
    ChaseOutcome outcome = result_.outcome_;
    if (outcome == ChaseOutcome::kLevelCapped) {
      if (new_max_level <= options_.max_level) return;
    } else if (outcome != ChaseOutcome::kInterrupted) {
      return;
    }
    TraceSpan span("chase.deepen");
    const ChaseStats before = result_.stats_;
    options_.max_level = std::max(options_.max_level, new_max_level);
    SetGovernor(governor);
    full_recheck_ = true;
    delta_.clear();
    Advance();
    Finish(span, before);
  }

  const ChaseResult& result() const { return result_; }
  ChaseResult TakeResult() { return std::move(result_); }
  int level_cap() const { return options_.max_level; }
  uint32_t next_null() const { return next_null_; }

 private:
  void SetGovernor(ExecGovernor* governor) {
    governor_ = governor != nullptr ? governor : options_.governor;
  }

  // True when the governor has tripped. Latches kInterrupted and arms a
  // full rescan: a trip can lose pending applications mid-batch (they are
  // in no delta window afterwards), so a resumed run must re-collect from
  // the whole instance.
  bool Interrupted() {
    if (governor_ == nullptr || governor_->CheckNow()) return false;
    result_.outcome_ = ChaseOutcome::kInterrupted;
    full_recheck_ = true;
    return true;
  }

  // Drives the chase from wherever it stopped: phase A (the preliminary
  // chase with Sigma_FL^-) to fixpoint, then phase B under the current
  // level cap. First call and resumed calls share this path; phase A is
  // skipped once it has completed.
  void Advance() {
    // Always reach the EGD fixpoint first: a resumed run may have been
    // interrupted mid-merge, and quiescence detection assumes a
    // rho_4-saturated instance. At fixpoint this is one cheap scan.
    if (!EgdFixpoint()) return Seal();

    if (!preliminary_done_) {
      // Phase A: saturate the ten Datalog TGDs (rho_4 interleaved);
      // everything stays at level 0.
      for (;;) {
        if (Interrupted()) return Seal();
        DeltaWindow window = TakeDelta();
        std::vector<PendingTgd> pending =
            CollectTgds(window, /*force_level_zero=*/true);
        if (pending.empty()) break;
        for (const PendingTgd& p : pending) {
          if (!ApplyTgd(p)) return Seal();
        }
        if (!EgdFixpoint()) return Seal();
        ++result_.stats_.rounds;
      }
      // An empty collection pass under a tripped governor is truncation,
      // not fixpoint — do not advance the phase marker.
      if (Interrupted()) return Seal();
      preliminary_done_ = true;
      // Phase B: rho_5 joins in and levels grow. Mandatory conjuncts of
      // level 0 need a rho_5 pass, so rescan.
      full_recheck_ = true;
      delta_.clear();
    }
    RunCyclic();
  }

  // Runs phase B until quiescence under the current level cap, setting the
  // outcome (kCompleted if nothing applicable remains anywhere,
  // kLevelCapped if instances beyond the cap were deferred).
  void RunCyclic() {
    bool saw_beyond_cap = false;
    for (;;) {
      if (Interrupted()) return Seal();
      DeltaWindow window = TakeDelta();
      std::vector<PendingTgd> tgds =
          CollectTgds(window, /*force_level_zero=*/false);
      std::vector<PendingExistential> exists = CollectExistentials(window);

      std::vector<PendingTgd> tgds_now;
      std::vector<PendingExistential> exists_now;
      for (PendingTgd& p : tgds) {
        if (p.level <= options_.max_level) {
          tgds_now.push_back(std::move(p));
        } else {
          saw_beyond_cap = true;
        }
      }
      for (PendingExistential& p : exists) {
        if (p.level <= options_.max_level) {
          exists_now.push_back(std::move(p));
        } else {
          saw_beyond_cap = true;
        }
      }

      if (tgds_now.empty() && exists_now.empty()) {
        // A trip during collection truncates the pending sets; re-check
        // before declaring quiescence.
        if (Interrupted()) return Seal();
        result_.outcome_ = saw_beyond_cap ? ChaseOutcome::kLevelCapped
                                          : ChaseOutcome::kCompleted;
        return Seal();
      }

      for (const PendingTgd& p : tgds_now) {
        if (!ApplyTgd(p)) return Seal();
      }
      for (const PendingExistential& p : exists_now) {
        if (!ApplyExistential(p)) return Seal();
      }
      if (!EgdFixpoint()) return Seal();
      ++result_.stats_.rounds;
      // Beyond-cap instances remain applicable; they will be re-collected
      // only while their body atoms stay in the delta window, so remember
      // that we saw them.
    }
  }
  FactIndex& index() { return result_.conjuncts_; }

  // ---- node insertion -------------------------------------------------

  // Returns false if the atom budget is exhausted or the governor tripped
  // (outcome set).
  bool InsertNode(const Atom& atom, int level, RuleId rule,
                  std::vector<uint32_t> parents) {
    if (governor_ != nullptr && !governor_->Tick()) {
      result_.outcome_ = ChaseOutcome::kInterrupted;
      full_recheck_ = true;
      return false;
    }
    auto [id, inserted] = index().Insert(atom);
    if (!inserted) return true;
    FLOQ_CHECK_EQ(id, result_.meta_.size());
    result_.meta_.push_back(ChaseNodeMeta{level, rule, std::move(parents)});
    result_.max_level_ = std::max(result_.max_level_, level);
    delta_.push_back(atom);
    if (rule != kRho0) ++result_.stats_.tgd_applications;
    if (rule > kRho0 && rule <= kRho12) {
      ++result_.stats_.rule_fired[size_t(rule)];
    }
    if (index().size() > options_.max_atoms) {
      result_.outcome_ = ChaseOutcome::kBudgetExceeded;
      return false;
    }
    return true;
  }

  bool ApplyTgd(const PendingTgd& p) {
    if (index().Contains(p.head)) {
      // Another application in this batch got there first: by
      // Definition 3(4) this is a cross-arc situation.
      RecordCrossArcs(p.parents, index().IdOf(p.head), p.id);
      return true;
    }
    return InsertNode(p.head, p.level, p.id, p.parents);
  }

  bool ApplyExistential(const PendingExistential& p) {
    // Re-check the restriction against the current instance: an earlier
    // application in this batch may have supplied the data conjunct.
    if (uint32_t blocker = FindDataFor(p.object, p.attr);
        blocker != kInvalidFactId) {
      RecordCrossArcs({p.parent}, blocker, kRho5);
      return true;
    }
    Term fresh = Term::Null(next_null_++);
    ++result_.stats_.fresh_nulls;
    return InsertNode(Atom::Data(p.object, p.attr, fresh), p.level, kRho5,
                      {p.parent});
  }

  // Id of some data(object, attr, ·) conjunct, or kInvalidFactId.
  uint32_t FindDataFor(Term object, Term attr) const {
    const FactIndex& idx = result_.conjuncts_;
    const PostingView by_object = idx.WithArgument(pfl::kData, 0, object);
    const PostingView by_attr = idx.WithArgument(pfl::kData, 1, attr);
    const PostingView& scan =
        by_object.size() <= by_attr.size() ? by_object : by_attr;
    for (uint32_t id : scan) {
      const Atom& atom = idx.at(id);
      if (atom.arg(0) == object && atom.arg(1) == attr) return id;
    }
    return kInvalidFactId;
  }

  void RecordCrossArcs(const std::vector<uint32_t>& from, uint32_t to,
                       RuleId rule) {
    if (!options_.record_cross_arcs) return;
    for (uint32_t f : from) {
      uint64_t key = (uint64_t(f) << 32) | to;
      if (cross_seen_.insert({key, rule}).second) {
        result_.cross_arcs_.push_back(ChaseArc{f, to, rule, /*cross=*/true});
      }
    }
  }

  // ---- TGD collection --------------------------------------------------

  // The set of conjuncts added since the previous collection pass, or a
  // request to rescan everything (initially and after EGD rebuilds).
  struct DeltaWindow {
    bool full = false;
    std::vector<Atom> atoms;
  };

  DeltaWindow TakeDelta() {
    DeltaWindow window;
    window.full = full_recheck_ || !options_.use_delta_windows;
    if (!window.full) window.atoms = std::move(delta_);
    delta_.clear();
    full_recheck_ = false;
    return window;
  }

  // Finds every applicable TGD instance (body matches, head not yet
  // present). In delta mode, only instances using at least one conjunct
  // added since the previous collection are searched — applicability of
  // TGDs is monotone, so older instances were found earlier.
  std::vector<PendingTgd> CollectTgds(const DeltaWindow& window,
                                      bool force_level_zero) {
    std::vector<PendingTgd> pending;
    std::unordered_set<Atom, AtomHash> pending_heads;

    auto consider = [&](const SigmaTgd& tgd, const Substitution& match) {
      Atom head = match.Apply(tgd.rule.head);
      std::vector<uint32_t> parents;
      parents.reserve(tgd.rule.body.size());
      int level = 0;
      for (const Atom& body_atom : tgd.rule.body) {
        Atom ground = match.Apply(body_atom);
        uint32_t id = index().IdOf(ground);
        FLOQ_CHECK_NE(id, kInvalidFactId);
        parents.push_back(id);
        level = std::max(level, result_.meta_[id].level);
      }
      if (index().Contains(head)) {
        RecordCrossArcs(parents, index().IdOf(head), tgd.id);
        return;
      }
      if (!pending_heads.insert(head).second) return;
      pending.push_back(PendingTgd{tgd.id, head,
                                   std::move(parents),
                                   force_level_zero ? 0 : level + 1});
    };

    for (const SigmaTgd& tgd : sigma_.tgds) {
      if (window.full) {
        MatchConjunction(tgd.rule.body, index(), Substitution(),
                         [&](const Substitution& match) {
                           consider(tgd, match);
                           return true;
                         },
                         /*stats=*/nullptr, governor_);
        continue;
      }
      for (size_t pivot = 0; pivot < tgd.rule.body.size(); ++pivot) {
        std::vector<Atom> rest;
        for (size_t i = 0; i < tgd.rule.body.size(); ++i) {
          if (i != pivot) rest.push_back(tgd.rule.body[i]);
        }
        for (const Atom& fact : window.atoms) {
          Substitution subst;
          if (!TryUnifyAtom(tgd.rule.body[pivot], fact, subst)) continue;
          MatchConjunction(rest, index(), subst,
                           [&](const Substitution& match) {
                             consider(tgd, match);
                             return true;
                           },
                           /*stats=*/nullptr, governor_);
        }
      }
    }
    return pending;
  }

  // Finds every applicable rho_5 instance: a mandatory(A, O) conjunct with
  // no data(O, A, ·) conjunct. Blocking is permanent (data conjuncts are
  // only rewritten, never removed), so delta mode only inspects new
  // mandatory conjuncts; rebuilds force a full recheck.
  std::vector<PendingExistential> CollectExistentials(
      const DeltaWindow& window) {
    std::vector<PendingExistential> pending;
    std::set<std::pair<Term, Term>> seen;

    auto consider = [&](uint32_t id) {
      const Atom& atom = index().at(id);
      Term attr = atom.arg(0);
      Term object = atom.arg(1);
      if (!seen.insert({object, attr}).second) return;
      if (uint32_t blocker = FindDataFor(object, attr);
          blocker != kInvalidFactId) {
        RecordCrossArcs({id}, blocker, kRho5);
        return;
      }
      pending.push_back(PendingExistential{object, attr, id,
                                           result_.meta_[id].level + 1});
    };

    if (window.full) {
      for (uint32_t id : index().WithPredicate(pfl::kMandatory)) consider(id);
    } else {
      for (const Atom& atom : window.atoms) {
        if (atom.predicate() != pfl::kMandatory) continue;
        uint32_t id = index().IdOf(atom);
        if (id != kInvalidFactId) consider(id);
      }
    }
    return pending;
  }

  // ---- EGD (rho_4) ------------------------------------------------------

  // Applies rho_4 to exhaustion (chase step (a) of Definition 2). Instead
  // of enumerating the quadratic set of homomorphisms of body(rho_4), we
  // exploit its shape: for each funct(A, O) conjunct, all values of
  // data(O, A, ·) form one equivalence class.
  bool EgdFixpoint() {
    for (;;) {
      if (Interrupted()) return false;
      bool merged_any = false;
      for (uint32_t fid : index().WithPredicate(pfl::kFunct)) {
        if (governor_ != nullptr && !governor_->Tick()) {
          result_.outcome_ = ChaseOutcome::kInterrupted;
          full_recheck_ = true;
          return false;
        }
        const Atom& funct = index().at(fid);
        Term attr = funct.arg(0);
        Term object = funct.arg(1);
        const PostingView by_object =
            index().WithArgument(pfl::kData, 0, object);
        const PostingView by_attr =
            index().WithArgument(pfl::kData, 1, attr);
        const PostingView& scan =
            by_object.size() <= by_attr.size() ? by_object : by_attr;
        Term first;
        for (uint32_t id : scan) {
          const Atom& atom = index().at(id);
          if (atom.arg(0) != object || atom.arg(1) != attr) continue;
          if (!first.valid()) {
            first = atom.arg(2);
            continue;
          }
          uint64_t before = uf_.merge_count();
          Status status = uf_.Merge(first, atom.arg(2), world_);
          if (!status.ok()) {
            result_.outcome_ = ChaseOutcome::kFailed;
            return false;
          }
          merged_any |= uf_.merge_count() != before;
        }
      }
      if (!merged_any) return true;
      result_.stats_.egd_merges = uf_.merge_count();
      Rebuild();
    }
  }

  // Rewrites every conjunct, the head, and the graph metadata through the
  // union-find, collapsing conjuncts that become equal.
  void Rebuild() {
    ++result_.stats_.rebuilds;
    FactIndex old_index = std::move(result_.conjuncts_);
    std::vector<ChaseNodeMeta> old_meta = std::move(result_.meta_);
    result_.conjuncts_ = FactIndex();
    result_.meta_.clear();

    std::vector<uint32_t> remap(old_index.size());
    for (uint32_t i = 0; i < old_index.size(); ++i) {
      Atom atom = Canonicalize(old_index.at(i));
      auto [id, inserted] = result_.conjuncts_.Insert(atom);
      remap[i] = id;
      ChaseNodeMeta meta = std::move(old_meta[i]);
      for (uint32_t& parent : meta.parents) parent = remap[parent];
      if (inserted) {
        result_.meta_.push_back(std::move(meta));
      } else {
        // Two conjuncts collapsed; the earlier generation wins, the later
        // one's derivation becomes cross-arcs.
        result_.meta_[id].level = std::min(result_.meta_[id].level, meta.level);
        RecordCrossArcs(meta.parents, id, meta.rule);
      }
    }

    for (ChaseArc& arc : result_.cross_arcs_) {
      arc.from = remap[arc.from];
      arc.to = remap[arc.to];
    }
    for (Term& t : result_.head_) t = uf_.Find(t);

    result_.max_level_ = 0;
    for (const ChaseNodeMeta& meta : result_.meta_) {
      result_.max_level_ = std::max(result_.max_level_, meta.level);
    }

    delta_.clear();
    full_recheck_ = true;
  }

  Atom Canonicalize(const Atom& atom) {
    Atom out = atom;
    for (int i = 0; i < atom.arity(); ++i) out.set_arg(i, uf_.Find(atom.arg(i)));
    return out;
  }

  void Seal() { result_.stats_.egd_merges = uf_.merge_count(); }

  // End-of-run observability: annotates the surrounding span with the
  // final shape and folds the stats delta of this Run/Deepen call into
  // the registry. Both are no-ops with no sink installed.
  void Finish(TraceSpan& span, const ChaseStats& before) {
    Seal();  // idempotent; covers early returns that bypass Advance()
    if (span.active()) {
      span.Arg("outcome", ChaseOutcomeName(result_.outcome_))
          .Arg("conjuncts", int64_t(result_.conjuncts_.size()))
          .Arg("max_level", int64_t(result_.max_level_))
          .Arg("level_cap", int64_t(options_.max_level));
    }
    FoldChaseMetrics(before, result_.stats_, result_,
                     /*generic_driver=*/false);
  }

  const World& world_;
  ChaseOptions options_;
  const SigmaFL& sigma_;
  uint32_t next_null_;
  ChaseResult result_;
  TermUnionFind uf_;
  std::vector<Atom> delta_;
  // Governor of the current Run/Deepen call (not owned; see SetGovernor).
  ExecGovernor* governor_ = nullptr;
  bool preliminary_done_ = false;
  bool full_recheck_ = true;
  std::set<std::pair<uint64_t, RuleId>> cross_seen_;
};

void FoldChaseMetrics(const ChaseStats& before, const ChaseStats& after,
                      const ChaseResult& result, bool generic_driver) {
  if (!MetricsRegistry::enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::Get();
  // All twelve rule counters are registered eagerly (not on first firing)
  // so a metrics export always carries the full rho_1..rho_12 series,
  // zeros included.
  static const std::array<Counter*, 13>& rules = *[] {
    auto* out = new std::array<Counter*, 13>{};
    for (int k = 1; k <= 12; ++k) {
      (*out)[size_t(k)] =
          &MetricsRegistry::Get().counter(StrCat("chase.rule.rho", k));
    }
    return out;
  }();
  for (int k = 1; k <= 12; ++k) {
    uint64_t fired =
        after.rule_fired[size_t(k)] - before.rule_fired[size_t(k)];
    if (fired > 0) rules[size_t(k)]->Add(fired);
  }

  static Counter& runs = registry.counter("chase.runs");
  static Counter& generic_runs = registry.counter("generic_chase.runs");
  static Counter& rounds = registry.counter("chase.rounds");
  static Counter& applications = registry.counter("chase.tgd_applications");
  static Counter& nulls = registry.counter("chase.fresh_nulls");
  static Counter& merges = registry.counter("chase.egd_merges");
  static Counter& rebuilds = registry.counter("chase.rebuilds");
  (generic_driver ? generic_runs : runs).Add(1);
  if (after.rounds > before.rounds) rounds.Add(after.rounds - before.rounds);
  if (after.tgd_applications > before.tgd_applications) {
    applications.Add(after.tgd_applications - before.tgd_applications);
  }
  if (after.fresh_nulls > before.fresh_nulls) {
    nulls.Add(after.fresh_nulls - before.fresh_nulls);
  }
  if (after.egd_merges > before.egd_merges) {
    merges.Add(after.egd_merges - before.egd_merges);
  }
  if (after.rebuilds > before.rebuilds) {
    rebuilds.Add(after.rebuilds - before.rebuilds);
  }

  static Histogram& level = registry.histogram("chase.max_level");
  static Histogram& conjuncts = registry.histogram("chase.conjuncts");
  level.Record(uint64_t(std::max(result.max_level(), 0)));
  conjuncts.Record(result.size());
}

uint32_t ChaseResult::CountUpToLevel(int level) const {
  uint32_t count = 0;
  for (const ChaseNodeMeta& meta : meta_) {
    if (meta.level <= level) ++count;
  }
  return count;
}

std::vector<ChaseArc> ChaseResult::Arcs() const {
  std::vector<ChaseArc> arcs;
  for (uint32_t id = 0; id < meta_.size(); ++id) {
    for (uint32_t parent : meta_[id].parents) {
      arcs.push_back(ChaseArc{parent, id, meta_[id].rule, /*cross=*/false});
    }
  }
  arcs.insert(arcs.end(), cross_arcs_.begin(), cross_arcs_.end());
  return arcs;
}

std::string ChaseResult::DebugString(const World& world) const {
  std::string out = StrCat("chase: ", ChaseOutcomeName(outcome_), ", ",
                           size(), " conjuncts, max level ", max_level_, "\n");
  for (uint32_t id = 0; id < size(); ++id) {
    const ChaseNodeMeta& m = meta_[id];
    out += StrCat("  [", id, "] L", m.level, " ",
                  conjuncts_.at(id).ToString(world));
    if (m.rule != kRho0) {
      out += StrCat("  (rho_", int(m.rule), " from");
      for (uint32_t parent : m.parents) out += StrCat(" ", parent);
      out += ")";
    }
    out += '\n';
  }
  return out;
}

ChaseResult ChaseQuery(World& world, const ConjunctiveQuery& query,
                       const ChaseOptions& options) {
  const SigmaFL sigma = MakeSigmaFL(world);
  ChaseEngine engine(world, sigma, options, world.null_count());
  engine.Run(query);
  world.AdvanceNullCounter(engine.next_null());
  return engine.TakeResult();
}

ChaseResult ChaseLevelZero(World& world, const ConjunctiveQuery& query,
                           const ChaseOptions& options) {
  ChaseOptions level_zero = options;
  level_zero.max_level = 0;
  return ChaseQuery(world, query, level_zero);
}

// ---- ResumableChase ---------------------------------------------------------

ResumableChase::ResumableChase(const World& world, const SigmaFL& sigma,
                               const ConjunctiveQuery& query,
                               const ChaseOptions& options)
    : world_(&world),
      sigma_(&sigma),
      first_null_(world.null_count()),
      query_(query),
      options_(options) {}

ResumableChase::~ResumableChase() = default;
ResumableChase::ResumableChase(ResumableChase&&) noexcept = default;
ResumableChase& ResumableChase::operator=(ResumableChase&&) noexcept = default;

const ChaseResult& ResumableChase::EnsureLevel(int level,
                                               ExecGovernor* governor) {
  if (!started_) {
    FLOQ_CHECK(!frozen_);
    ChaseOptions run_options = options_;
    run_options.max_level = level;
    engine_ = std::make_unique<ChaseEngine>(*world_, *sigma_, run_options,
                                            first_null_);
    engine_->Run(query_, governor);
    started_ = true;
    return engine_->result();
  }
  if (Covers(level)) return engine_->result();
  FLOQ_CHECK(!frozen_);  // immutability contract: no deepening when shared
  engine_->Deepen(level, governor);
  ++deepen_count_;
  return engine_->result();
}

bool ResumableChase::Covers(int level) const {
  if (!started_) return false;
  // Already materialized deep enough, or nothing deeper exists
  // (completed) or can be computed (failed / budget). An interrupted
  // chase is never covered — its materialization is incomplete even at
  // the current cap, so it always resumes.
  const ChaseOutcome outcome = engine_->result().outcome();
  return outcome != ChaseOutcome::kInterrupted &&
         (level <= engine_->level_cap() ||
          outcome != ChaseOutcome::kLevelCapped);
}

const ChaseResult& ResumableChase::result() const {
  FLOQ_CHECK(started_);
  return engine_->result();
}

int ResumableChase::level_cap() const {
  FLOQ_CHECK(started_);
  return engine_->level_cap();
}

}  // namespace floq
