#include "datalog/compiled_pattern.h"

#include <algorithm>

#include "datalog/binding_trail.h"
#include "datalog/posting_block.h"
#include "util/check.h"

namespace floq {

namespace {

// Below this driver-list size a k-way leapfrog intersection costs more
// than scanning the smallest list and letting unification reject
// mismatches: rejection is O(1)-ish per candidate (first mismatching
// position), so the gallops only pay off once they can skip *runs* of a
// long driver list. Chase-sized indexes keep most argument lists well
// under this, so on the generator corpus the cutoff mostly routes to the
// scan — measured in EXPERIMENTS.md E11; see DESIGN.md §9.
constexpr size_t kIntersectCutoff = 128;

}  // namespace

void CompiledPattern::Compile(std::span<const Atom> pattern,
                              const FactIndex& index,
                              const Substitution& initial,
                              MatchStats* stats) {
  atoms_.clear();
  slot_vars_.clear();
  impossible_ = false;
  // Reject pass: before allocating anything, scan for an atom whose
  // predicate bucket or constant-position posting list is empty. Dead
  // patterns are the common case in containment search (most probes do
  // not embed), and this makes them allocation-free: the whole "search"
  // is a handful of hash probes. The re-probe of surviving constant
  // positions below is one hash lookup each, noise next to the search a
  // live pattern then runs.
  for (const Atom& p : pattern) {
    if (index.WithPredicate(p.predicate()).empty()) {
      impossible_ = true;
      return;
    }
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      if (arg.IsVariable() && initial.Lookup(arg) == nullptr) continue;
      if (stats != nullptr) ++stats->index_probes;
      if (index.WithArgument(p.predicate(), i, initial.Apply(arg)).empty()) {
        impossible_ = true;
        return;
      }
    }
  }

  atoms_.reserve(pattern.size());
  for (const Atom& p : pattern) {
    CompiledAtom ca;
    ca.predicate = p.predicate();
    ca.arity = uint8_t(p.arity());
    ca.static_best = index.WithPredicate(p.predicate());
    ca.static_best_const_index = -1;
    for (int i = 0; i < p.arity(); ++i) {
      Term arg = p.arg(i);
      CompiledArg& slot_arg = ca.args[i];
      if (arg.IsVariable() && initial.Lookup(arg) == nullptr) {
        // Renumber to a dense slot. Linear scan: patterns have a handful
        // of distinct variables, and this runs once per search (a hash
        // map's allocation costs more than the scan saves).
        auto it = std::find(slot_vars_.begin(), slot_vars_.end(), arg);
        uint32_t slot = uint32_t(it - slot_vars_.begin());
        if (it == slot_vars_.end()) slot_vars_.push_back(arg);
        slot_arg.kind = CompiledArg::Kind::kSlot;
        slot_arg.slot = slot;
        for (int j = 0; j < i; ++j) {
          if (ca.args[j].kind == CompiledArg::Kind::kSlot &&
              ca.args[j].slot == slot) {
            slot_arg.repeated_in_atom = true;
            break;
          }
        }
        ca.slot_positions[ca.num_slot_positions++] = {uint8_t(i), slot};
      } else {
        // A constant, a null, or a variable the initial substitution
        // already pins: its posting list is fixed for the whole search.
        // The reject pass proved it nonempty.
        slot_arg.kind = CompiledArg::Kind::kConstant;
        slot_arg.value = initial.Apply(arg);
        const PostingView ids =
            index.WithArgument(p.predicate(), i, slot_arg.value);
        ca.const_lists[ca.num_const_lists] = ids;
        // <= so ties prefer the argument list: it is a subset of the
        // predicate bucket, so unification rejects fewer candidates.
        if (ids.size() <= ca.static_best.size()) {
          ca.static_best = ids;
          ca.static_best_const_index = int8_t(ca.num_const_lists);
        }
        ++ca.num_const_lists;
      }
    }
    atoms_.push_back(ca);
  }
}

namespace {

// Cached candidate estimate for one pattern atom, valid as long as none
// of its slots was bound or unbound since (tracked by version sums:
// slot_version is bumped on every bind *and* undo, so a version-sum
// match proves the atom's binding state is unchanged and the node can
// reuse the cached lists without re-probing the index). Within a stale
// atom, caching is per *position*: binding one slot of a three-slot
// atom re-probes one list, not three — index probes are the dominant
// per-node cost, and sibling nodes invalidate shared atoms constantly.
struct AtomCache {
  uint64_t version = ~uint64_t{0};  // sentinel: always stale initially
  uint32_t best_size = 0;
  PostingView best;
  // Which lists[] entry best is, or -1 when best is the predicate bucket
  // (then it participates in no intersection skip).
  int8_t best_index = -1;
  // All constraining posting views (constant + bound-slot positions),
  // the intersection input. At most one view per argument position.
  uint8_t num_lists = 0;
  std::array<PostingView, kMaxArity> lists;
  // Per-slot-position memo, indexed like CompiledAtom::slot_positions:
  // the view probed for that position and the slot version it was probed
  // at (pos_has_list marks positions whose slot was unbound then — a
  // PostingView has no null state, so boundness needs its own flag).
  std::array<PostingView, kMaxArity> pos_list{};
  std::array<bool, kMaxArity> pos_has_list{};
  std::array<uint64_t, kMaxArity> pos_version{};
};

// Per-thread reusable kernel state. Containment search runs millions of
// tiny searches (most die after a handful of nodes), so per-search
// malloc/free of the compile output and matcher arrays would rival the
// search itself; keeping one scratch per thread makes the steady state
// allocation-free. `in_use` guards re-entrancy: an on_match callback that
// starts another search gets a fresh stack-local scratch instead.
struct KernelScratch {
  CompiledPattern pattern;
  BindingTrail trail;
  std::vector<uint64_t> slot_version;
  std::vector<AtomCache> cache;
  std::vector<Term> emitted;
  std::vector<uint32_t> remaining;
  bool in_use = false;
};

// The trail-based backtracking search over a compiled pattern. Mirrors
// the map-based matcher it replaced (kept as the test oracle
// tests/matcher_oracle.h) node for node — same dynamic atom ordering,
// same candidate semantics — so the two enumerate identical match sets,
// asserted by tests/kernel_test.cc.
class CompiledMatcher {
 public:
  CompiledMatcher(const CompiledPattern& pattern, const FactIndex& index,
                  const Substitution& initial,
                  FunctionRef<bool(const Substitution&)> on_match,
                  MatchStats* stats, ExecGovernor* governor,
                  KernelScratch& scratch)
      : pattern_(pattern),
        index_(index),
        on_match_(on_match),
        stats_(stats),
        governor_(governor),
        trail_(scratch.trail),
        slot_version_(scratch.slot_version),
        cache_(scratch.cache),
        emit_(initial),
        emitted_(scratch.emitted),
        remaining_(scratch.remaining) {
    size_t num_slots = pattern.num_slots();
    size_t num_atoms = pattern.atoms().size();
    trail_.Reset(num_slots);
    slot_version_.assign(num_slots, 0);
    cache_.assign(num_atoms, AtomCache{});
    emitted_.assign(num_slots, Term());
    remaining_.clear();
    remaining_.reserve(num_atoms);
    for (size_t i = 0; i < num_atoms; ++i) remaining_.push_back(uint32_t(i));
  }

  bool Run() { return Recurse(); }

 private:

  uint64_t VersionOf(const CompiledAtom& atom) const {
    uint64_t v = 0;
    for (uint8_t i = 0; i < atom.num_slot_positions; ++i) {
      v += slot_version_[atom.slot_positions[i].second];
    }
    return v;
  }

  void Refresh(uint32_t atom_index, uint64_t version) {
    const CompiledAtom& atom = pattern_.atoms()[atom_index];
    AtomCache& cache = cache_[atom_index];
    cache.version = version;
    cache.num_lists = 0;
    const PostingView* best = &atom.static_best;
    // const_lists land at the same indexes in cache.lists, so the compile-
    // time best index carries over directly.
    int8_t best_index = atom.static_best_const_index;
    for (uint8_t i = 0; i < atom.num_const_lists; ++i) {
      cache.lists[cache.num_lists++] = atom.const_lists[i];
    }
    for (uint8_t i = 0; i < atom.num_slot_positions; ++i) {
      auto [position, slot] = atom.slot_positions[i];
      // The zero-initialized memo is already valid: slot version 0 means
      // "never bound", and the memo's default for it is "no list".
      uint64_t slot_version = slot_version_[slot];
      if (cache.pos_version[i] != slot_version) {
        cache.pos_version[i] = slot_version;
        if (trail_.Bound(slot)) {
          if (stats_ != nullptr) ++stats_->index_probes;
          cache.pos_list[i] = index_.WithArgument(atom.predicate, position,
                                                  trail_.Get(slot));
          cache.pos_has_list[i] = true;
        } else {
          cache.pos_has_list[i] = false;
        }
      }
      if (!cache.pos_has_list[i]) continue;
      const PostingView& ids = cache.pos_list[i];
      if (ids.size() < best->size()) {
        best = &ids;
        best_index = int8_t(cache.num_lists);
      }
      cache.lists[cache.num_lists++] = ids;
    }
    cache.best = *best;
    cache.best_index = best_index;
    cache.best_size = uint32_t(best->size());
  }

  void BindSlot(uint32_t slot, Term value) {
    trail_.Bind(slot, value);
    ++slot_version_[slot];
  }

  void UndoToMark(size_t mark) {
    const std::vector<uint32_t>& trail = trail_.trail();
    for (size_t i = mark; i < trail.size(); ++i) ++slot_version_[trail[i]];
    trail_.UndoTo(mark);
  }

  bool Unify(const CompiledAtom& atom, const Atom& fact, size_t mark) {
    for (uint8_t i = 0; i < atom.arity; ++i) {
      const CompiledArg& arg = atom.args[i];
      Term image = fact.arg(i);
      if (arg.kind == CompiledArg::Kind::kConstant) {
        if (arg.value != image) {
          UndoToMark(mark);
          return false;
        }
      } else if (trail_.Bound(arg.slot)) {
        if (trail_.Get(arg.slot) != image) {
          UndoToMark(mark);
          return false;
        }
      } else {
        BindSlot(arg.slot, image);
      }
    }
    return true;
  }

  // The Substitution handed to the callback. Built incrementally: at a
  // full match every slot is bound, and consecutive matches of a DFS
  // enumeration differ only in their deepest bindings, so diffing against
  // the previously emitted assignment turns the per-match cost from
  // "rebuild a hash map" into a slot-array scan plus a hash update per
  // *changed* slot. Callbacks see the same aliasing contract as the
  // matcher oracle's live substitution: valid for the duration of the
  // call, copy to retain.
  const Substitution& Materialize() {
    for (uint32_t slot = 0; slot < uint32_t(emitted_.size()); ++slot) {
      Term value = trail_.Get(slot);
      if (emitted_[slot] != value) {
        emit_.Bind(pattern_.slot_var(slot), value);
        emitted_[slot] = value;
      }
    }
    return emit_;
  }

  bool Recurse() {
    if (stats_ != nullptr) ++stats_->nodes_visited;
    // A governor trip unwinds exactly like a callback stop (every frame
    // undoes its trail mark); the caller distinguishes the two by
    // inspecting governor->tripped().
    if (governor_ != nullptr && !governor_->Tick()) return false;
    if (remaining_.empty()) {
      if (stats_ != nullptr) ++stats_->matches_found;
      return on_match_(Materialize());
    }

    // Most-constrained-first over *cached* candidate counts: only atoms
    // whose slots changed since their last estimate re-probe the index.
    size_t best_slot = 0;
    uint32_t best_count = UINT32_MAX;
    for (size_t slot = 0; slot < remaining_.size(); ++slot) {
      uint32_t atom_index = remaining_[slot];
      uint64_t version = VersionOf(pattern_.atoms()[atom_index]);
      if (cache_[atom_index].version != version) {
        Refresh(atom_index, version);
      }
      uint32_t count = cache_[atom_index].best_size;
      if (count < best_count) {
        best_count = count;
        best_slot = slot;
        if (count == 0) return true;  // dead end, enumerate siblings
      }
    }

    uint32_t atom_index = remaining_[best_slot];
    remaining_.erase(remaining_.begin() + best_slot);
    const CompiledAtom& atom = pattern_.atoms()[atom_index];
    const AtomCache& cache = cache_[atom_index];

    // Lazy k-way intersection: drive the smallest list and leapfrog a
    // monotone cursor through each other constraining list, skipping
    // candidates absent from any of them. Lazy (instead of materializing
    // the full intersection up front) because first-match searches and
    // callback-stopped enumerations break out of the loop early — work
    // spent intersecting ids the loop never reaches is pure waste. When
    // any other list runs out, no later driver id can qualify either.
    PostingCursor driver(cache.best);
    std::array<PostingCursor, kMaxArity> others;
    size_t num_others = 0;
    if (cache.num_lists >= 2 && cache.best_size > kIntersectCutoff) {
      for (uint8_t i = 0; i < cache.num_lists; ++i) {
        if (int8_t(i) == cache.best_index) continue;
        others[num_others++] = PostingCursor(cache.lists[i]);
      }
      if (stats_ != nullptr && num_others > 0) ++stats_->intersect_nodes;
    }

    // Tick per driver iteration: the leapfrog loop can gallop through
    // long posting lists without ever reaching Recurse(), so deadline
    // enforcement must live inside the intersection itself. Batched
    // through a register counter: the hot loop pays one local decrement,
    // and the governor's member state is touched once per kGovernorBatch
    // iterations (still far finer than its kStride clock amortization).
    constexpr uint32_t kGovernorBatch = 64;
    ExecGovernor* const governor = governor_;
    uint32_t governor_countdown = kGovernorBatch;
    bool keep_going = true;
    while (!driver.AtEnd()) {
      if (governor != nullptr && --governor_countdown == 0) {
        governor_countdown = kGovernorBatch;
        if (!governor->TickBatch(kGovernorBatch)) {
          keep_going = false;
          break;
        }
      }
      uint32_t fact_id = driver.value();
      bool present = true;
      bool exhausted = false;
      for (size_t i = 0; i < num_others; ++i) {
        PostingCursor& other = others[i];
        if (!other.SeekGE(fact_id)) {
          exhausted = true;
          break;
        }
        const uint32_t found = other.value();
        if (found != fact_id) {
          // Leapfrog: every driver id below the other list's next value
          // fails membership too, so jump the driver cursor straight to
          // it. This run-skipping is what lets intersection beat a plain
          // scan-and-let-unification-reject loop — over the frozen tier
          // both seeks skip whole compressed blocks via their max-ids.
          present = false;
          driver.Next();
          if (!driver.SeekGE(found)) exhausted = true;
          if (stats_ != nullptr) ++stats_->gallop_skips;
          break;
        }
        other.Next();
      }
      if (exhausted) break;
      if (!present) continue;
      size_t mark = trail_.Mark();
      if (Unify(atom, index_.at(fact_id), mark)) {
        keep_going = Recurse();
        UndoToMark(mark);
      }
      if (!keep_going) break;
      driver.Next();
    }

    remaining_.insert(remaining_.begin() + best_slot, atom_index);
    return keep_going;
  }

  const CompiledPattern& pattern_;
  const FactIndex& index_;
  FunctionRef<bool(const Substitution&)> on_match_;
  MatchStats* stats_;
  ExecGovernor* governor_;
  // Search state, borrowed from the per-thread KernelScratch.
  BindingTrail& trail_;
  std::vector<uint64_t>& slot_version_;
  std::vector<AtomCache>& cache_;
  // Emission state for Materialize(): the last substitution handed to the
  // callback and, per slot, the value it held then (invalid = never).
  Substitution emit_;
  std::vector<Term>& emitted_;
  std::vector<uint32_t>& remaining_;
};

}  // namespace

bool MatchCompiled(std::span<const Atom> pattern, const FactIndex& index,
                   const Substitution& initial,
                   FunctionRef<bool(const Substitution&)> on_match,
                   MatchStats* stats, ExecGovernor* governor) {
  thread_local KernelScratch tls;
  KernelScratch local;  // empty vectors: only filled if re-entered
  KernelScratch& scratch = tls.in_use ? local : tls;
  scratch.in_use = true;
  struct Release {
    bool* flag;
    ~Release() { *flag = false; }
  } release{&scratch.in_use};

  scratch.pattern.Compile(pattern, index, initial, stats);
  if (scratch.pattern.impossible()) {
    if (stats != nullptr) ++stats->reject_prepass_hits;
    return true;  // no matches, not stopped early
  }
  return CompiledMatcher(scratch.pattern, index, initial, on_match, stats,
                         governor, scratch)
      .Run();
}

}  // namespace floq
