#include "containment/classifier.h"

#include <functional>

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
  for (const ConjunctiveQuery& query : queries) {
    Result<size_t> id = engine.AddQuery(query);
    if (!id.ok()) return id.status();
  }
  Result<SparseVerdicts> sparse = engine.CheckAllSparse();
  if (!sparse.ok()) return sparse.status();

  int unknown_checks = 0;
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) contained[i][i] = true;
  for (size_t s = 0; s < sparse->pairs.size(); ++s) {
    const auto& [i, j] = sparse->pairs[s];
    const PairVerdict& verdict = sparse->verdicts[s];
    // An UNKNOWN verdict (resource trip) counts as not-contained here:
    // the taxonomy only merges or orders classes on *proven*
    // containments, so trips can hide structure but never fabricate it.
    contained[i][j] = verdict.contained;
    if (verdict.resolution == Resolution::kUnknown) ++unknown_checks;
  }
  const BatchStats& stats = engine.stats();
  return TaxonomyFromContainment(
      contained, int(stats.pairs_checked - stats.pruned_pairs),
      unknown_checks, int(stats.pruned_pairs));
}

QueryTaxonomy TaxonomyFromContainment(
    const std::vector<std::vector<bool>>& contained, int checks,
    int unknown_checks, int pruned_checks) {
  const size_t n = contained.size();
  QueryTaxonomy taxonomy;
  taxonomy.class_of.assign(n, -1);
  taxonomy.checks = checks;
  taxonomy.unknown_checks = unknown_checks;
  taxonomy.pruned_checks = pruned_checks;
  if (n == 0) return taxonomy;

  // Equivalence classes: mutual containment.
  for (size_t i = 0; i < n; ++i) {
    if (taxonomy.class_of[i] >= 0) continue;
    int cls = int(taxonomy.classes.size());
    taxonomy.classes.push_back({i});
    taxonomy.class_of[i] = cls;
    for (size_t j = i + 1; j < n; ++j) {
      if (taxonomy.class_of[j] < 0 && contained[i][j] && contained[j][i]) {
        taxonomy.class_of[j] = cls;
        taxonomy.classes[cls].push_back(j);
      }
    }
  }

  // Strict containment between classes (via representatives).
  const size_t m = taxonomy.classes.size();
  taxonomy.contains.assign(m, std::vector<bool>(m, false));
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a == b) continue;
      size_t i = taxonomy.classes[a][0];
      size_t j = taxonomy.classes[b][0];
      taxonomy.contains[a][b] = contained[i][j];
    }
  }

  // Hasse reduction: keep (a, b) with nothing strictly between.
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (!taxonomy.contains[a][b]) continue;
      bool direct = true;
      for (size_t c = 0; c < m && direct; ++c) {
        if (c == a || c == b) continue;
        direct = !(taxonomy.contains[a][c] && taxonomy.contains[c][b]);
      }
      if (direct) taxonomy.hasse_edges.emplace_back(int(a), int(b));
    }
  }
  return taxonomy;
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
