// Tests for the golden GCN model: normalization, activation, layer
// and multi-layer inference.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "linalg/spdemm.hpp"

namespace hymm {
namespace {

CsrMatrix path_graph3() {
  // 0 - 1 - 2 undirected path.
  CooMatrix coo(3, 3);
  coo.add(0, 1, 1.0f);
  coo.add(1, 0, 1.0f);
  coo.add(1, 2, 1.0f);
  coo.add(2, 1, 1.0f);
  return CsrMatrix::from_coo(std::move(coo));
}

TEST(NormalizeAdjacency, SymmetricNormalizationWithSelfLoops) {
  const CsrMatrix a_hat = normalize_adjacency(path_graph3(), true);
  // With self loops: deg(0)=2, deg(1)=3, deg(2)=2.
  // a_hat[0][1] = 1/sqrt(2*3).
  bool found = false;
  const auto cols = a_hat.row_cols(0);
  const auto vals = a_hat.row_values(0);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == 1) {
      EXPECT_NEAR(vals[k], 1.0 / std::sqrt(6.0), 1e-6);
      found = true;
    }
    if (cols[k] == 0) {
      EXPECT_NEAR(vals[k], 0.5, 1e-6);  // self loop: 1/sqrt(2*2)
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(a_hat.nnz(), 4u + 3u);  // edges + self loops
}

TEST(NormalizeAdjacency, RowSumsBoundedBySqrtDegree) {
  // For D^-1/2 (A+I) D^-1/2 each term is 1/sqrt(d_i d_j) <= 1/sqrt(d_i),
  // so a row of degree d_i sums to at most sqrt(d_i).
  GraphSpec spec;
  spec.nodes = 200;
  spec.edges = 1600;
  spec.seed = 31;
  const CsrMatrix a = generate_power_law_graph(spec);
  const CsrMatrix a_hat = normalize_adjacency(a, true);
  for (NodeId r = 0; r < a_hat.rows(); ++r) {
    double sum = 0.0;
    for (const Value v : a_hat.row_values(r)) {
      EXPECT_GT(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    const double degree = static_cast<double>(a.row_nnz(r)) + 1.0;
    EXPECT_LE(sum, std::sqrt(degree) + 1e-5);
  }
}

TEST(NormalizeAdjacency, SymmetricOutput) {
  GraphSpec spec;
  spec.nodes = 100;
  spec.edges = 700;
  spec.seed = 5;
  const CsrMatrix a = generate_power_law_graph(spec);
  const CsrMatrix a_hat = normalize_adjacency(a, true);
  EXPECT_EQ(a_hat.transpose(), a_hat);
}

TEST(NormalizeAdjacency, WithoutSelfLoopsKeepsPattern) {
  const CsrMatrix a_hat = normalize_adjacency(path_graph3(), false);
  EXPECT_EQ(a_hat.nnz(), 4u);
}

TEST(NormalizeAdjacency, IsolatedNodesSurvive) {
  CooMatrix coo(3, 3);
  coo.add(0, 1, 1.0f);
  coo.add(1, 0, 1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  // Node 2 is isolated; without self loops its degree is zero.
  const CsrMatrix a_hat = normalize_adjacency(a, false);
  EXPECT_EQ(a_hat.row_nnz(2), 0u);
}

TEST(NormalizeAdjacency, MergesStoredDiagonalAndWeights) {
  // Row 1 stores a diagonal (merged with the self loop), row 0 gets
  // its loop inserted before its only column, rows 2 and 3 after;
  // negative weights count by magnitude in the degree.
  CooMatrix coo(4, 4);
  coo.add(0, 2, 1.0f);
  coo.add(1, 0, 1.0f);
  coo.add(1, 1, 2.0f);
  coo.add(1, 3, -1.0f);
  coo.add(2, 0, 1.0f);
  coo.add(3, 1, -1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  const CsrMatrix a_hat = normalize_adjacency(a, true);

  const double loops[4][4] = {{1, 0, 1, 0},
                              {1, 3, 0, -1},
                              {1, 0, 1, 0},
                              {0, -1, 0, 1}};
  double degree[4] = {};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) degree[i] += std::abs(loops[i][j]);
  }
  EXPECT_EQ(a_hat.nnz(), 9u);
  for (NodeId r = 0; r < 4; ++r) {
    const auto cols = a_hat.row_cols(r);
    const auto vals = a_hat.row_values(r);
    std::size_t k = 0;
    for (NodeId c = 0; c < 4; ++c) {
      if (loops[r][c] == 0.0) continue;
      ASSERT_LT(k, cols.size()) << "row " << r;
      EXPECT_EQ(cols[k], c) << "row " << r;
      EXPECT_FLOAT_EQ(vals[k], static_cast<float>(
                                   loops[r][c] / std::sqrt(degree[r]) /
                                   std::sqrt(degree[c])))
          << "(" << r << "," << c << ")";
      ++k;
    }
    EXPECT_EQ(k, cols.size()) << "row " << r;
  }
}

TEST(NormalizeAdjacency, RejectsUnsortedRows) {
  const CsrMatrix unsorted =
      CsrMatrix::from_parts(2, 2, {0, 2, 2}, {1, 0}, {1.0f, 1.0f});
  EXPECT_THROW(normalize_adjacency(unsorted), CheckError);
  const CsrMatrix duplicated =
      CsrMatrix::from_parts(2, 2, {0, 2, 2}, {1, 1}, {1.0f, 1.0f});
  EXPECT_THROW(normalize_adjacency(duplicated, false), CheckError);
}

TEST(Relu, ClampsNegatives) {
  DenseMatrix m = DenseMatrix::zeros(2, 2);
  m.at(0, 0) = -1.5f;
  m.at(0, 1) = 2.0f;
  m.at(1, 0) = -0.1f;
  relu_inplace(m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 0.0f);
}

TEST(DenseToCsr, DropsExactZeros) {
  DenseMatrix m = DenseMatrix::zeros(2, 3);
  m.at(0, 2) = 1.0f;
  m.at(1, 0) = -2.0f;
  const CsrMatrix s = dense_to_csr(m);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.row_cols(0)[0], 2u);
  EXPECT_FLOAT_EQ(s.row_values(1)[0], -2.0f);
}

TEST(GcnLayer, MatchesManualComposition) {
  GraphSpec gspec;
  gspec.nodes = 60;
  gspec.edges = 400;
  gspec.seed = 7;
  const CsrMatrix a = generate_power_law_graph(gspec);
  const CsrMatrix a_hat = normalize_adjacency(a);
  FeatureSpec fspec;
  fspec.nodes = 60;
  fspec.feature_length = 40;
  fspec.density = 0.2;
  fspec.seed = 8;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(40, 16, 9);

  const GcnLayerResult layer = gcn_layer_reference(a_hat, x, w, true);
  const DenseMatrix xw = sparse_times_dense(x, w);
  const DenseMatrix axw = spdemm_row_wise(a_hat, xw);
  EXPECT_TRUE(DenseMatrix::allclose(layer.combination, xw));
  EXPECT_TRUE(DenseMatrix::allclose(layer.aggregation, axw));
  // Activation is elementwise ReLU of the aggregation.
  for (NodeId r = 0; r < axw.rows(); ++r) {
    for (NodeId c = 0; c < axw.cols(); ++c) {
      EXPECT_FLOAT_EQ(layer.activation.at(r, c),
                      std::max(0.0f, axw.at(r, c)));
    }
  }
}

TEST(GcnLayer, ShapeChecks) {
  const CsrMatrix a_hat = normalize_adjacency(path_graph3());
  FeatureSpec fspec;
  fspec.nodes = 4;  // mismatched with the 3-node graph
  fspec.feature_length = 8;
  fspec.density = 0.5;
  fspec.seed = 1;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(8, 4, 2);
  EXPECT_THROW(gcn_layer_reference(a_hat, x, w), CheckError);
}

TEST(GcnInference, TwoLayersComposeThroughRelu) {
  GraphSpec gspec;
  gspec.nodes = 40;
  gspec.edges = 250;
  gspec.seed = 17;
  const CsrMatrix a_hat =
      normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = 40;
  fspec.feature_length = 24;
  fspec.density = 0.4;
  fspec.seed = 18;
  const CsrMatrix x = generate_features(fspec);
  const std::vector<DenseMatrix> weights = {
      DenseMatrix::random(24, 16, 19), DenseMatrix::random(16, 8, 20)};

  const DenseMatrix h2 = gcn_inference_reference(a_hat, x, weights);
  // Manual composition.
  GcnLayerResult l1 = gcn_layer_reference(a_hat, x, weights[0], true);
  const CsrMatrix h1 = dense_to_csr(l1.activation);
  GcnLayerResult l2 = gcn_layer_reference(a_hat, h1, weights[1], false);
  EXPECT_TRUE(DenseMatrix::allclose(h2, l2.aggregation));
  // Last layer skips ReLU, so negatives may appear.
  EXPECT_EQ(h2.rows(), 40u);
  EXPECT_EQ(h2.cols(), 8u);
}

TEST(GcnInference, RequiresAtLeastOneLayer) {
  const CsrMatrix a_hat = normalize_adjacency(path_graph3());
  FeatureSpec fspec;
  fspec.nodes = 3;
  fspec.feature_length = 4;
  fspec.density = 1.0;
  fspec.seed = 1;
  const CsrMatrix x = generate_features(fspec);
  EXPECT_THROW(gcn_inference_reference(a_hat, x, {}), CheckError);
}

}  // namespace
}  // namespace hymm
