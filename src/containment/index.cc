#include "containment/index.h"

#include <cstddef>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace floq {

ContainmentIndex::ContainmentIndex(World& world,
                                   const BatchContainmentOptions& options)
    : engine_(world, options) {}

Resolution ContainmentIndex::ResolutionOf(size_t lhs, size_t rhs) const {
  FLOQ_CHECK_LT(lhs, resolution_.size());
  FLOQ_CHECK_LT(rhs, resolution_.size());
  return resolution_[lhs][rhs];
}

Result<size_t> ContainmentIndex::Insert(const ConjunctiveQuery& query) {
  Result<size_t> id_or = engine_.AddQuery(query);
  if (!id_or.ok()) return id_or.status();
  const size_t id = *id_or;
  const size_t n = id + 1;
  for (std::vector<Resolution>& row : resolution_) {
    row.resize(n, Resolution::kNotContained);
  }
  resolution_.emplace_back(n, Resolution::kNotContained);
  resolution_[id][id] = Resolution::kContained;  // reflexive
  ++stats_.inserts;

  // Candidate pairs in both directions against every same-arity entry,
  // prefiltered here so the engine batch holds only survivors. The engine
  // applies the same test again as its stage 0 — deterministic, so the
  // survivors pass it and nothing is double-counted as pruned.
  const ClosureSignature* sig_new = engine_.signature_of(id);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t j = 0; j < id; ++j) {
    if (engine_.query(j).arity() != query.arity()) continue;
    const ClosureSignature* sig_old = engine_.signature_of(j);
    const std::pair<size_t, size_t> directions[2] = {{id, j}, {j, id}};
    for (const auto& [lhs, rhs] : directions) {
      ++stats_.candidate_pairs;
      const ClosureSignature* ls = lhs == id ? sig_new : sig_old;
      const ClosureSignature* rs = rhs == id ? sig_new : sig_old;
      if (ls != nullptr && rs != nullptr && !MayContain(*ls, rs->base)) {
        ++stats_.pruned_pairs;  // row already reads kNotContained
        continue;
      }
      pairs.emplace_back(lhs, rhs);
    }
  }

  if (!pairs.empty()) {
    Result<std::vector<PairVerdict>> verdicts = engine_.CheckPairs(pairs);
    if (!verdicts.ok()) return verdicts.status();
    stats_.checked_pairs += pairs.size();
    for (size_t k = 0; k < pairs.size(); ++k) {
      resolution_[pairs[k].first][pairs[k].second] = (*verdicts)[k].resolution;
      if ((*verdicts)[k].resolution == Resolution::kUnknown) {
        ++stats_.unknown_pairs;
      }
    }
  }
  return id;
}

QueryTaxonomy ContainmentIndex::TaxonomyOf(
    std::span<const size_t> ids) const {
  // position[id] = index of `id` within `ids`, or -1 when not selected.
  std::vector<ptrdiff_t> position(size(), -1);
  for (size_t p = 0; p < ids.size(); ++p) {
    FLOQ_CHECK_LT(ids[p], size());
    FLOQ_CHECK_EQ(position[ids[p]], -1);  // ids must be distinct
    position[ids[p]] = ptrdiff_t(p);
  }
  // kUnknown counts as not-contained: the taxonomy only merges or orders
  // classes on proven containments.
  std::vector<std::pair<size_t, size_t>> contained;
  for (size_t p = 0; p < ids.size(); ++p) {
    const std::vector<Resolution>& row = resolution_[ids[p]];
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] == Resolution::kContained && position[j] >= 0) {
        contained.emplace_back(p, size_t(position[j]));
      }
    }
  }
  return TaxonomyFromEdges(ids.size(), std::move(contained),
                           int(stats_.checked_pairs),
                           int(stats_.unknown_pairs),
                           int(stats_.pruned_pairs));
}

QueryTaxonomy ContainmentIndex::Taxonomy() const {
  std::vector<size_t> ids(size());
  std::iota(ids.begin(), ids.end(), size_t{0});
  return TaxonomyOf(ids);
}

}  // namespace floq
