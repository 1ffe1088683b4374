// Tests for the degree-sorting preprocessor (HyMM's Table I "Graph
// preprocessing" row) and the BFS and random orderings it is compared
// against.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "graph/degree_sort.hpp"
#include "graph/generator.hpp"

namespace hymm {
namespace {

CsrMatrix test_graph(NodeId nodes = 800, EdgeCount edges = 6000,
                     std::uint64_t seed = 21) {
  GraphSpec spec;
  spec.nodes = nodes;
  spec.edges = edges;
  spec.seed = seed;
  return generate_power_law_graph(spec);
}

TEST(DegreeSort, PermutationIsBijective) {
  const CsrMatrix a = test_graph();
  const auto perm = degree_sort_permutation(a);
  std::vector<NodeId> sorted(perm.begin(), perm.end());
  std::sort(sorted.begin(), sorted.end());
  for (NodeId i = 0; i < a.rows(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(DegreeSort, SortedDegreesAreNonIncreasing) {
  const CsrMatrix a = test_graph();
  const DegreeSortResult result = degree_sort(a);
  for (NodeId r = 1; r < result.sorted.rows(); ++r) {
    EXPECT_GE(result.sorted.row_nnz(r - 1), result.sorted.row_nnz(r));
  }
}

TEST(DegreeSort, PreservesEdgeMultisetAndValues) {
  const CsrMatrix a = test_graph(300, 2500, 5);
  const DegreeSortResult result = degree_sort(a);
  EXPECT_EQ(result.sorted.nnz(), a.nnz());
  // Each old edge (r, c) must appear at (perm[r], perm[c]).
  for (NodeId r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const NodeId nr = result.perm[r];
      const NodeId nc = result.perm[cols[k]];
      const auto ncols = result.sorted.row_cols(nr);
      const auto nvals = result.sorted.row_values(nr);
      const auto it = std::lower_bound(ncols.begin(), ncols.end(), nc);
      ASSERT_NE(it, ncols.end());
      ASSERT_EQ(*it, nc);
      EXPECT_FLOAT_EQ(nvals[it - ncols.begin()], vals[k]);
    }
  }
}

TEST(DegreeSort, SymmetryPreserved) {
  const CsrMatrix a = test_graph();
  ASSERT_EQ(a.transpose(), a);
  const DegreeSortResult result = degree_sort(a);
  EXPECT_EQ(result.sorted.transpose(), result.sorted);
}

TEST(DegreeSort, TieBreakIsStableById) {
  // Four nodes, all degree 1 except node 1 (degree 3).
  CooMatrix coo(4, 4);
  coo.add(1, 0, 1.0f);
  coo.add(1, 2, 1.0f);
  coo.add(1, 3, 1.0f);
  coo.add(0, 1, 1.0f);
  coo.add(2, 1, 1.0f);
  coo.add(3, 1, 1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  const auto perm = degree_sort_permutation(a);
  EXPECT_EQ(perm[1], 0u);  // highest degree first
  // Degree-1 nodes keep their relative order: 0 -> 1, 2 -> 2, 3 -> 3.
  EXPECT_EQ(perm[0], 1u);
  EXPECT_EQ(perm[2], 2u);
  EXPECT_EQ(perm[3], 3u);
}

TEST(DegreeSort, CostIsMeasured) {
  const CsrMatrix a = test_graph(2000, 20000, 9);
  const DegreeSortResult result = degree_sort(a);
  EXPECT_GE(result.sort_cost_ms, 0.0);
  EXPECT_LT(result.sort_cost_ms, 10000.0);
}

TEST(DegreeSort, RequiresSquareMatrix) {
  CooMatrix coo(2, 3);
  coo.add(0, 1, 1.0f);
  const CsrMatrix rect = CsrMatrix::from_coo(std::move(coo));
  EXPECT_THROW(degree_sort_permutation(rect), CheckError);
}

TEST(InvertPermutation, RoundTrip) {
  const std::vector<NodeId> perm = {3, 1, 0, 2};
  const auto inv = invert_permutation(perm);
  for (NodeId i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
  }
  const auto back = invert_permutation(inv);
  EXPECT_EQ(back, perm);
}

TEST(InvertPermutation, RejectsNonPermutation) {
  const std::vector<NodeId> bad = {0, 0, 1};
  EXPECT_THROW(invert_permutation(bad), CheckError);
}

TEST(PermuteFeatureRows, MovesRowsIntact) {
  CooMatrix coo(3, 4);
  coo.add(0, 1, 1.0f);
  coo.add(1, 2, 2.0f);
  coo.add(2, 3, 3.0f);
  const CsrMatrix x = CsrMatrix::from_coo(std::move(coo));
  const std::vector<NodeId> perm = {2, 0, 1};
  const CsrMatrix moved = permute_feature_rows(x, perm);
  EXPECT_EQ(moved.rows(), 3u);
  EXPECT_EQ(moved.cols(), 4u);
  // old row 0 -> new row 2, etc.
  EXPECT_EQ(moved.row_cols(2)[0], 1u);
  EXPECT_FLOAT_EQ(moved.row_values(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(moved.row_values(1)[0], 3.0f);
}

TEST(DegreeSort, SortedGraphConcentratesTopLeft) {
  // After sorting, the top-20%-row block must hold the Fig 2 edge
  // share in its *leading* rows, by construction.
  const CsrMatrix a = test_graph(3000, 30000, 13);
  const DegreeSortResult result = degree_sort(a);
  const NodeId top = a.rows() / 5;
  EdgeCount top_edges = 0;
  for (NodeId r = 0; r < top; ++r) top_edges += result.sorted.row_nnz(r);
  EXPECT_GT(static_cast<double>(top_edges) /
                static_cast<double>(a.nnz()),
            0.70);
}

CsrMatrix ordering_graph() {
  GraphSpec spec;
  spec.nodes = 400;
  spec.edges = 3200;
  spec.seed = 77;
  return generate_power_law_graph(spec);
}

TEST(Orderings, BfsPermutationIsBijective) {
  const CsrMatrix a = ordering_graph();
  const auto perm = bfs_permutation(a);
  EXPECT_NO_THROW(invert_permutation(perm));
  EXPECT_EQ(perm.size(), a.rows());
}

TEST(Orderings, BfsCoversIsolatedNodes) {
  CooMatrix coo(6, 6);
  coo.add(0, 1, 1.0f);
  coo.add(1, 0, 1.0f);
  // Nodes 2..5 are isolated; BFS must still number them.
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  const auto perm = bfs_permutation(a);
  EXPECT_NO_THROW(invert_permutation(perm));
}

TEST(Orderings, BfsImprovesNeighbourIdLocality) {
  // Average |perm[u] - perm[v]| over edges should shrink vs random.
  const CsrMatrix a = ordering_graph();
  auto mean_span = [&](const std::vector<NodeId>& perm) {
    double total = 0.0;
    for (NodeId r = 0; r < a.rows(); ++r) {
      for (const NodeId c : a.row_cols(r)) {
        const double d = static_cast<double>(perm[r]) - perm[c];
        total += d < 0 ? -d : d;
      }
    }
    return total / static_cast<double>(a.nnz());
  };
  const double bfs_span = mean_span(bfs_permutation(a));
  const double random_span =
      mean_span(random_permutation_of(a.rows(), 5));
  EXPECT_LT(bfs_span, random_span * 0.8);
}

TEST(Orderings, RandomPermutationDeterministicPerSeed) {
  EXPECT_EQ(random_permutation_of(100, 1), random_permutation_of(100, 1));
  EXPECT_NE(random_permutation_of(100, 1), random_permutation_of(100, 2));
  EXPECT_NO_THROW(invert_permutation(random_permutation_of(100, 1)));
}

}  // namespace
}  // namespace hymm
