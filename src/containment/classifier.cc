#include "containment/classifier.h"

#include <algorithm>
#include <functional>
#include <ranges>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace floq {

Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const BatchContainmentOptions& options) {
  const size_t n = queries.size();
  if (n == 0) {
    QueryTaxonomy taxonomy;
    return taxonomy;
  }

  // Pairwise containment over queries, via the batch engine: one memoized
  // chase per query, the signature prefilter discharging most pairs, and
  // homomorphism searches fanned out for the survivors. Only survivors
  // come back — every other pair is not contained — so the classifier
  // never holds an n x n verdict matrix.
  ContainmentEngine engine(world, options);
  FLOQ_RETURN_IF_ERROR(engine.AddQueries(queries).status());
  Result<SparseVerdicts> sparse = engine.CheckAllSparse();
  if (!sparse.ok()) return sparse.status();

  // An UNKNOWN verdict (resource trip) counts as not-contained here: the
  // taxonomy only merges or orders classes on *proven* containments, so
  // trips can hide structure but never fabricate it.
  int unknown_checks = 0;
  std::vector<std::pair<size_t, size_t>> contained;
  for (size_t s = 0; s < sparse->pairs.size(); ++s) {
    const PairVerdict& verdict = sparse->verdicts[s];
    if (verdict.contained) contained.push_back(sparse->pairs[s]);
    if (verdict.resolution == Resolution::kUnknown) ++unknown_checks;
  }
  const BatchStats& stats = engine.stats();
  return TaxonomyFromEdges(
      n, std::move(contained), int(stats.pairs_checked - stats.pruned_pairs),
      unknown_checks, int(stats.pruned_pairs));
}

QueryTaxonomy TaxonomyFromEdges(size_t n,
                                std::vector<std::pair<size_t, size_t>> edges,
                                int checks, int unknown_checks,
                                int pruned_checks) {
  QueryTaxonomy taxonomy;
  taxonomy.class_of.assign(n, -1);
  taxonomy.checks = checks;
  taxonomy.unknown_checks = unknown_checks;
  taxonomy.pruned_checks = pruned_checks;
  // Sorted, so each query's out-list is one ascending run.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const auto& [i, j] : edges) FLOQ_CHECK(i < n && j < n);
  auto out = [&](size_t i) {
    const auto first = std::lower_bound(edges.begin(), edges.end(),
                                        std::pair{i, size_t{0}});
    const auto last = std::lower_bound(first, edges.end(),
                                       std::pair{i + 1, size_t{0}});
    return std::ranges::subrange(first, last);
  };

  // Equivalence classes: mutual containment, numbered by first member.
  for (size_t i = 0; i < n; ++i) {
    if (taxonomy.class_of[i] >= 0) continue;
    const int cls = int(taxonomy.classes.size());
    taxonomy.classes.push_back({i});
    taxonomy.class_of[i] = cls;
    for (const auto& [_, j] : out(i)) {
      if (j > i && taxonomy.class_of[j] < 0 &&
          std::binary_search(edges.begin(), edges.end(), std::pair{j, i})) {
        taxonomy.class_of[j] = cls;
        taxonomy.classes[size_t(cls)].push_back(j);
      }
    }
  }

  // Strict containment between classes, read off the representatives'
  // out-lists. Representatives ascend with their class numbers, so each
  // successor list comes out sorted.
  const size_t m = taxonomy.classes.size();
  taxonomy.contains.assign(m, std::vector<bool>(m, false));
  std::vector<std::vector<int>> succ(m);
  for (size_t a = 0; a < m; ++a) {
    for (const auto& [_, j] : out(taxonomy.classes[a][0])) {
      const int b = taxonomy.class_of[j];
      if (size_t(b) == a || taxonomy.classes[size_t(b)][0] != j) continue;
      taxonomy.contains[a][size_t(b)] = true;
      succ[a].push_back(b);
    }
  }

  // Hasse reduction: keep (a, b) with nothing strictly between. Any class
  // between a and b is itself a successor of a.
  for (size_t a = 0; a < m; ++a) {
    for (int b : succ[a]) {
      if (std::none_of(succ[a].begin(), succ[a].end(), [&](int c) {
            return taxonomy.contains[size_t(c)][size_t(b)];
          })) {
        taxonomy.hasse_edges.emplace_back(int(a), b);
      }
    }
  }
  return taxonomy;
}

QueryTaxonomy TaxonomyFromContainment(
    const std::vector<std::vector<bool>>& contained, int checks,
    int unknown_checks, int pruned_checks) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < contained.size(); ++i) {
    for (size_t j = 0; j < contained[i].size(); ++j) {
      if (contained[i][j]) edges.emplace_back(i, j);
    }
  }
  return TaxonomyFromEdges(contained.size(), std::move(edges), checks,
                           unknown_checks, pruned_checks);
}

Result<QueryTaxonomy> ClassifyQueries(
    World& world, const std::vector<ConjunctiveQuery>& queries,
    const ContainmentOptions& options) {
  BatchContainmentOptions batch;
  batch.containment = options;
  return ClassifyQueries(world, queries, batch);
}

std::string TaxonomyToString(const QueryTaxonomy& taxonomy,
                             const std::vector<ConjunctiveQuery>& queries,
                             const World& world) {
  const size_t m = taxonomy.classes.size();
  std::string out;

  auto class_label = [&](size_t cls) {
    std::vector<std::string> names;
    for (size_t i : taxonomy.classes[cls]) names.push_back(queries[i].name());
    return Join(names, " ≡ ");
  };

  // Children of each class in the Hasse diagram (sub below super).
  std::vector<std::vector<int>> children(m);
  std::vector<bool> has_parent(m, false);
  for (const auto& [sub, super] : taxonomy.hasse_edges) {
    children[super].push_back(sub);
    has_parent[sub] = true;
  }

  std::function<void(size_t, int)> render = [&](size_t cls, int depth) {
    out += std::string(size_t(depth) * 2, ' ');
    out += class_label(cls);
    out += '\n';
    for (int child : children[cls]) render(size_t(child), depth + 1);
  };

  for (size_t cls = 0; cls < m; ++cls) {
    if (!has_parent[cls]) render(cls, 0);  // maximal (most general) roots
  }
  (void)world;
  return out;
}

}  // namespace floq
