#include "chase/generic_chase.h"

#include <algorithm>
#include <unordered_set>

#include "chase/term_union_find.h"
#include "datalog/evaluator.h"
#include "datalog/match.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace floq {

namespace {

// A TGD application candidate: the head as instantiated by the match
// (existential variables still variables), parents, and target level.
struct PendingGenericTgd {
  size_t tgd_index;
  Atom partial_head;
  std::vector<uint32_t> parents;
  int level;
};

}  // namespace

class GenericChaseEngine {
 public:
  GenericChaseEngine(World& world, const DependencySet& dependencies,
                     const ChaseOptions& options)
      : world_(world), dependencies_(dependencies), options_(options) {}

  ChaseResult Run(const std::vector<Atom>& initial,
                  const std::vector<Term>& head) {
    TraceSpan span("generic_chase.run");
    // The head comes first: an initial instance larger than the atom
    // budget stops the run mid-seed, and the truncated prefix is still
    // searched against the head.
    result_.head_ = head;
    for (const Atom& atom : initial) {
      if (!InsertNode(atom, 0, kRho0, {})) return Finish(span);
    }

    bool saw_beyond_cap = false;
    for (;;) {
      if (Interrupted()) return Finish(span);
      if (!EgdFixpoint()) return Finish(span);

      DeltaWindow window = TakeDelta();
      std::vector<PendingGenericTgd> pending = Collect(window);

      std::vector<PendingGenericTgd> now;
      for (PendingGenericTgd& p : pending) {
        if (p.level <= options_.max_level) {
          now.push_back(std::move(p));
        } else {
          saw_beyond_cap = true;
        }
      }
      if (now.empty()) {
        // A trip during collection truncates the pending set; re-check
        // before declaring quiescence.
        if (Interrupted()) return Finish(span);
        result_.outcome_ = saw_beyond_cap ? ChaseOutcome::kLevelCapped
                                          : ChaseOutcome::kCompleted;
        return Finish(span);
      }
      for (const PendingGenericTgd& p : now) {
        if (!Apply(p)) return Finish(span);
      }
      ++result_.stats_.rounds;
    }
  }

 private:
  struct DeltaWindow {
    bool full = false;
    std::vector<Atom> atoms;
  };

  FactIndex& index() { return result_.conjuncts_; }

  DeltaWindow TakeDelta() {
    DeltaWindow window;
    window.full = full_recheck_ || !options_.use_delta_windows;
    if (!window.full) window.atoms = std::move(delta_);
    delta_.clear();
    full_recheck_ = false;
    return window;
  }

  // True when the governor has tripped; latches kInterrupted. This engine
  // is one-shot (no resume), so no rescan bookkeeping is needed.
  bool Interrupted() {
    if (options_.governor == nullptr || options_.governor->CheckNow()) {
      return false;
    }
    result_.outcome_ = ChaseOutcome::kInterrupted;
    return true;
  }

  bool InsertNode(const Atom& atom, int level, RuleId rule,
                  std::vector<uint32_t> parents) {
    if (options_.governor != nullptr && !options_.governor->Tick()) {
      result_.outcome_ = ChaseOutcome::kInterrupted;
      return false;
    }
    auto [id, inserted] = index().Insert(atom);
    if (!inserted) return true;
    FLOQ_CHECK_EQ(id, result_.meta_.size());
    result_.meta_.push_back(ChaseNodeMeta{level, rule, std::move(parents)});
    result_.max_level_ = std::max(result_.max_level_, level);
    delta_.push_back(atom);
    if (rule != kRho0) ++result_.stats_.tgd_applications;
    if (index().size() > options_.max_atoms) {
      result_.outcome_ = ChaseOutcome::kBudgetExceeded;
      return false;
    }
    return true;
  }

  // True iff the (restricted) TGD instance is satisfied: some extension of
  // the match maps the head into the instance. Universal positions of
  // `partial_head` are fixed terms (possibly variables-as-values);
  // existential positions — where the atom still carries the TGD's own
  // existential variable — are wildcards that must only repeat
  // consistently. A hand-rolled scan is used instead of the matcher
  // because value variables must not be treated as bindable.
  bool HeadSatisfied(const Tgd& tgd, const Atom& partial_head) {
    std::vector<Term> existential = tgd.ExistentialVariables();
    auto is_existential = [&](Term t) {
      for (Term e : existential) {
        if (e == t) return true;
      }
      return false;
    };

    PostingView candidates = index().WithPredicate(partial_head.predicate());
    for (int i = 0; i < partial_head.arity(); ++i) {
      Term t = partial_head.arg(i);
      if (is_existential(t)) continue;
      const PostingView ids =
          index().WithArgument(partial_head.predicate(), i, t);
      if (ids.size() < candidates.size()) candidates = ids;
    }
    for (uint32_t id : candidates) {
      const Atom& fact = index().at(id);
      Substitution extension;
      bool matches = true;
      for (int i = 0; i < partial_head.arity() && matches; ++i) {
        Term t = partial_head.arg(i);
        if (is_existential(t)) {
          matches = extension.TryBind(t, fact.arg(i));
        } else {
          matches = t == fact.arg(i);
        }
      }
      if (matches) return true;
    }
    return false;
  }

  std::vector<PendingGenericTgd> Collect(const DeltaWindow& window) {
    std::vector<PendingGenericTgd> pending;
    std::unordered_set<Atom, AtomHash> pending_heads;

    auto consider = [&](size_t tgd_index, const Substitution& match) {
      const Tgd& tgd = dependencies_.tgds[tgd_index];
      Atom partial_head = match.Apply(tgd.head);
      if (HeadSatisfied(tgd, partial_head)) return;
      if (!pending_heads.insert(partial_head).second) return;
      std::vector<uint32_t> parents;
      parents.reserve(tgd.body.size());
      int level = 0;
      for (const Atom& body_atom : tgd.body) {
        uint32_t id = index().IdOf(match.Apply(body_atom));
        FLOQ_CHECK_NE(id, kInvalidFactId);
        parents.push_back(id);
        level = std::max(level, result_.meta_[id].level);
      }
      pending.push_back(PendingGenericTgd{tgd_index, partial_head,
                                          std::move(parents), level + 1});
    };

    for (size_t t = 0; t < dependencies_.tgds.size(); ++t) {
      const Tgd& tgd = dependencies_.tgds[t];
      if (window.full) {
        MatchConjunction(tgd.body, index(), Substitution(),
                         [&](const Substitution& match) {
                           consider(t, match);
                           return true;
                         },
                         /*stats=*/nullptr, options_.governor);
        continue;
      }
      for (size_t pivot = 0; pivot < tgd.body.size(); ++pivot) {
        std::vector<Atom> rest;
        for (size_t i = 0; i < tgd.body.size(); ++i) {
          if (i != pivot) rest.push_back(tgd.body[i]);
        }
        for (const Atom& fact : window.atoms) {
          Substitution subst;
          if (!TryUnifyAtom(tgd.body[pivot], fact, subst)) continue;
          MatchConjunction(rest, index(), subst,
                           [&](const Substitution& match) {
                             consider(t, match);
                             return true;
                           },
                           /*stats=*/nullptr, options_.governor);
        }
      }
    }
    return pending;
  }

  bool Apply(const PendingGenericTgd& p) {
    const Tgd& tgd = dependencies_.tgds[p.tgd_index];
    // Another application this batch may have satisfied the instance.
    if (HeadSatisfied(tgd, p.partial_head)) return true;
    std::vector<Term> existential = tgd.ExistentialVariables();
    Atom head = p.partial_head;
    bool invented = false;
    for (Term var : existential) {
      Term fresh = world_.MakeFreshNull();
      bool used = false;
      for (int j = 0; j < head.arity(); ++j) {
        if (head.arg(j) == var) {
          head.set_arg(j, fresh);
          used = true;
        }
      }
      invented |= used;
    }
    if (invented) ++result_.stats_.fresh_nulls;
    return InsertNode(head, p.level, RuleId(1000 + int(p.tgd_index)),
                      p.parents);
  }

  // EGDs to exhaustion; merges rewrite the instance through the
  // union-find. Returns false on failure (two distinct constants).
  bool EgdFixpoint() {
    for (;;) {
      bool merged_any = false;
      for (const Egd& egd : dependencies_.egds) {
        bool ok = true;
        MatchConjunction(egd.body, index(), Substitution(),
                         [&](const Substitution& match) {
                           Term left = uf_.Find(match.Apply(egd.left));
                           Term right = uf_.Find(match.Apply(egd.right));
                           if (left == right) return true;
                           Status merged = uf_.Merge(left, right, world_);
                           if (!merged.ok()) {
                             ok = false;
                             return false;
                           }
                           merged_any = true;
                           return true;
                         },
                         /*stats=*/nullptr, options_.governor);
        if (!ok) {
          result_.outcome_ = ChaseOutcome::kFailed;
          return false;
        }
      }
      if (!merged_any) return true;
      result_.stats_.egd_merges = uf_.merge_count();
      Rebuild();
    }
  }

  void Rebuild() {
    ++result_.stats_.rebuilds;
    FactIndex old_index = std::move(result_.conjuncts_);
    std::vector<ChaseNodeMeta> old_meta = std::move(result_.meta_);
    result_.conjuncts_ = FactIndex();
    result_.meta_.clear();

    std::vector<uint32_t> remap(old_index.size());
    for (uint32_t i = 0; i < old_index.size(); ++i) {
      Atom atom = old_index.at(i);
      for (int j = 0; j < atom.arity(); ++j) {
        atom.set_arg(j, uf_.Find(atom.arg(j)));
      }
      auto [id, inserted] = result_.conjuncts_.Insert(atom);
      remap[i] = id;
      ChaseNodeMeta meta = std::move(old_meta[i]);
      for (uint32_t& parent : meta.parents) parent = remap[parent];
      if (inserted) {
        result_.meta_.push_back(std::move(meta));
      } else {
        result_.meta_[id].level = std::min(result_.meta_[id].level, meta.level);
      }
    }
    for (Term& t : result_.head_) t = uf_.Find(t);
    result_.max_level_ = 0;
    for (const ChaseNodeMeta& meta : result_.meta_) {
      result_.max_level_ = std::max(result_.max_level_, meta.level);
    }
    delta_.clear();
    full_recheck_ = true;
  }

  ChaseResult Finish(TraceSpan& span) {
    result_.stats_.egd_merges = uf_.merge_count();
    if (span.active()) {
      span.Arg("outcome", ChaseOutcomeName(result_.outcome_))
          .Arg("conjuncts", int64_t(result_.conjuncts_.size()))
          .Arg("max_level", int64_t(result_.max_level_))
          .Arg("tgds", int64_t(dependencies_.tgds.size()));
    }
    // One-shot engine: stats start from zero, so the "before" snapshot is
    // the default-constructed ChaseStats.
    FoldChaseMetrics(ChaseStats{}, result_.stats_, result_,
                     /*generic_driver=*/true);
    return std::move(result_);
  }

  World& world_;
  const DependencySet& dependencies_;
  ChaseOptions options_;
  ChaseResult result_;
  TermUnionFind uf_;
  std::vector<Atom> delta_;
  bool full_recheck_ = true;
};

ChaseResult GenericChase(World& world, const ConjunctiveQuery& query,
                         const DependencySet& dependencies,
                         const ChaseOptions& options) {
  return GenericChaseEngine(world, dependencies, options)
      .Run(query.body(), query.head());
}

ChaseResult GenericChaseFacts(World& world, const std::vector<Atom>& facts,
                              const DependencySet& dependencies,
                              const ChaseOptions& options) {
  return GenericChaseEngine(world, dependencies, options).Run(facts, {});
}

}  // namespace floq
