// TaxonomyFromEdges against the dense oracle (taxonomy_oracle.h) over
// random containment relations. The relations are arbitrary, not just
// preorders: a batch with UNKNOWN verdicts (counted as not contained) can
// hand the builder a relation that is not transitive.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "containment/classifier.h"
#include "taxonomy_oracle.h"
#include "util/rng.h"

namespace floq {
namespace {

using Matrix = std::vector<std::vector<bool>>;
using Edges = std::vector<std::pair<size_t, size_t>>;

Matrix Reflexive(size_t n) {
  Matrix m(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) m[i][i] = true;
  return m;
}

// Every cell independently true with probability p.
Matrix RandomRelation(Rng& rng, size_t n, double p) {
  Matrix m = Reflexive(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.Chance(p)) m[i][j] = true;
    }
  }
  return m;
}

// A preorder: random groups of mutually contained members over a random
// DAG of groups, transitively closed, with some nodes left isolated. Then
// non-representative members get extra out- and in-edges their class
// representative lacks (the builder must read classes off
// representatives only), and a few edges drop out (trips hiding
// structure).
Matrix RandomPreorder(Rng& rng, size_t n) {
  Matrix m = Reflexive(n);
  if (n == 0) return m;
  const size_t groups = 1 + rng.Below(n);
  std::vector<size_t> group_of(n);
  for (size_t i = 0; i < n; ++i) {
    // Isolated nodes get their own fresh group past the others.
    group_of[i] = rng.Chance(0.1) ? groups + i : rng.Below(groups);
  }
  const size_t g = groups + n;
  Matrix below(g, std::vector<bool>(g, false));  // below[a][b]: a ⊆ b
  for (size_t a = 0; a < groups; ++a) {
    below[a][a] = true;
    for (size_t b = a + 1; b < groups; ++b) {
      if (rng.Chance(0.05)) below[a][b] = true;
    }
  }
  for (size_t k = 0; k < groups; ++k) {  // Warshall closure
    for (size_t a = 0; a < groups; ++a) {
      if (!below[a][k]) continue;
      for (size_t b = 0; b < groups; ++b) {
        if (below[k][b]) below[a][b] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (group_of[i] == group_of[j] || below[group_of[i]][group_of[j]]) {
        m[i][j] = true;
      }
    }
  }
  // The representative of each group is its smallest member; every later
  // member may carry extra edges.
  std::vector<bool> seen(g, false);
  for (size_t i = 0; i < n; ++i) {
    if (!seen[group_of[i]]) {
      seen[group_of[i]] = true;
      continue;
    }
    for (int extra = 0; extra < 3; ++extra) {
      const size_t j = rng.Below(n);
      if (rng.Chance(0.5)) {
        m[i][j] = true;
      } else {
        m[j][i] = true;
      }
    }
  }
  for (int drop = 0; drop < 3; ++drop) {
    const size_t i = rng.Below(n);
    const size_t j = rng.Below(n);
    if (i != j) m[i][j] = false;
  }
  return m;
}

// A directed cycle 0 -> 1 -> ... -> n-1 -> 0, optionally closed.
Matrix Cycle(size_t n, bool closed) {
  Matrix m = Reflexive(n);
  if (n < 2) return m;
  for (size_t i = 0; i < n; ++i) m[i][(i + 1) % n] = true;
  if (closed) {
    for (size_t i = 0; i < n; ++i) m[i].assign(n, true);
  }
  return m;
}

// A chain 0 ⊆ 1 ⊆ ... ⊆ n-1, transitively closed or just the links.
Matrix Chain(size_t n, bool closed) {
  Matrix m = Reflexive(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < (closed ? n : i + 2); ++j) m[i][j] = true;
  }
  return m;
}

// The matrix's true cells, shuffled, with duplicates and some reflexive
// pairs dropped: the builder must not depend on edge order or on the
// diagonal.
Edges ToEdges(Rng& rng, const Matrix& m) {
  Edges edges;
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t j = 0; j < m.size(); ++j) {
      if (!m[i][j] || (i == j && rng.Chance(0.5))) continue;
      edges.emplace_back(i, j);
      if (rng.Chance(0.05)) edges.emplace_back(i, j);
    }
  }
  for (size_t k = edges.size(); k > 1; --k) {
    std::swap(edges[k - 1], edges[rng.Below(k)]);
  }
  return edges;
}

void ExpectSameTaxonomy(Rng& rng, const Matrix& m, const std::string& label) {
  SCOPED_TRACE(label + ", n = " + std::to_string(m.size()));
  const QueryTaxonomy expected = DenseTaxonomyOracle(m, 7, 2, 5);
  const QueryTaxonomy built =
      TaxonomyFromEdges(m.size(), ToEdges(rng, m), 7, 2, 5);
  EXPECT_EQ(built.class_of, expected.class_of);
  EXPECT_EQ(built.classes, expected.classes);
  EXPECT_EQ(built.contains, expected.contains);
  EXPECT_EQ(built.hasse_edges, expected.hasse_edges);
  EXPECT_EQ(built.checks, 7);
  EXPECT_EQ(built.unknown_checks, 2);
  EXPECT_EQ(built.pruned_checks, 5);
  // The dense adapter is the same builder.
  const QueryTaxonomy adapted = TaxonomyFromContainment(m, 7, 2, 5);
  EXPECT_EQ(adapted.classes, expected.classes);
  EXPECT_EQ(adapted.hasse_edges, expected.hasse_edges);
}

TEST(TaxonomyFromEdgesTest, MatchesDenseOracleOnRandomRelations) {
  Rng rng(20261017);
  int relations = 0;
  for (int round = 0; round < 60; ++round) {
    const size_t n = rng.Below(round < 50 ? 40 : 301);
    ExpectSameTaxonomy(rng, RandomPreorder(rng, n), "preorder");
    ExpectSameTaxonomy(rng, RandomRelation(rng, n, 0.02), "sparse relation");
    ExpectSameTaxonomy(rng, RandomRelation(rng, n, 0.3), "dense relation");
    const bool cycle = rng.Chance(0.5);
    ExpectSameTaxonomy(rng, cycle ? Cycle(n, false) : Chain(n, false),
                       "unclosed cycle or chain");
    relations += 4;
  }
  for (size_t n : {0, 1, 2, 3, 17}) {
    for (bool closed : {false, true}) {
      ExpectSameTaxonomy(rng, Cycle(n, closed), "cycle");
      ExpectSameTaxonomy(rng, Chain(n, closed), "chain");
      ExpectSameTaxonomy(rng, Reflexive(n), "isolated");
      relations += 3;
    }
  }
  EXPECT_GE(relations, 200);
}

}  // namespace
}  // namespace floq
