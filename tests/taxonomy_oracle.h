#ifndef FLOQ_TESTS_TAXONOMY_ORACLE_H_
#define FLOQ_TESTS_TAXONOMY_ORACLE_H_

#include <cstddef>
#include <vector>

#include "containment/classifier.h"

// Test-only oracle: the dense taxonomy algorithm the library used before
// TaxonomyFromEdges. It reads a full n x n containment matrix and tests
// every class triple in the Hasse reduction — slow, but obviously the
// definition, so the edge-list builder is checked against it.

namespace floq {

inline QueryTaxonomy DenseTaxonomyOracle(
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
        taxonomy.classes[size_t(cls)].push_back(j);
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

}  // namespace floq

#endif  // FLOQ_TESTS_TAXONOMY_ORACLE_H_
