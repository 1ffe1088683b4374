// Tests for the synthetic graph and feature generators: determinism,
// statistics the paper's mechanisms depend on (power-law skew,
// symmetry, density targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generator.hpp"
#include "graph/guide_table.hpp"

namespace hymm {
namespace {

GraphSpec small_spec() {
  GraphSpec spec;
  spec.nodes = 500;
  spec.edges = 4000;
  spec.seed = 11;
  return spec;
}

TEST(PowerLawGraph, Deterministic) {
  const CsrMatrix a = generate_power_law_graph(small_spec());
  const CsrMatrix b = generate_power_law_graph(small_spec());
  EXPECT_EQ(a, b);
}

TEST(PowerLawGraph, SeedChangesGraph) {
  GraphSpec spec = small_spec();
  const CsrMatrix a = generate_power_law_graph(spec);
  spec.seed = 12;
  const CsrMatrix b = generate_power_law_graph(spec);
  EXPECT_NE(a, b);
}

TEST(PowerLawGraph, HitsEdgeTargetWithinTolerance) {
  const GraphSpec spec = small_spec();
  const CsrMatrix a = generate_power_law_graph(spec);
  EXPECT_EQ(a.rows(), spec.nodes);
  EXPECT_EQ(a.cols(), spec.nodes);
  const double ratio =
      static_cast<double>(a.nnz()) / static_cast<double>(spec.edges);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LE(ratio, 1.05);
}

TEST(PowerLawGraph, SymmetricByDefault) {
  const CsrMatrix a = generate_power_law_graph(small_spec());
  EXPECT_EQ(a.transpose(), a);
}

TEST(PowerLawGraph, NoSelfLoops) {
  const CsrMatrix a = generate_power_law_graph(small_spec());
  for (NodeId r = 0; r < a.rows(); ++r) {
    for (const NodeId c : a.row_cols(r)) {
      EXPECT_NE(c, r);
    }
  }
}

TEST(PowerLawGraph, UnitWeights) {
  const CsrMatrix a = generate_power_law_graph(small_spec());
  for (const Value v : a.values()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(PowerLawGraph, Top20PercentHoldsMostEdges) {
  // Fig 2: "the top 20% of high-degree nodes account for more than
  // 70% of the total edge count".
  GraphSpec spec;
  spec.nodes = 4000;
  spec.edges = 40000;
  spec.seed = 3;
  const CsrMatrix a = generate_power_law_graph(spec);
  EXPECT_GT(top_degree_edge_share(a, 0.20), 0.70);
}

TEST(PowerLawGraph, ShuffledIdsAreNotDegreeSorted) {
  GraphSpec spec;
  spec.nodes = 2000;
  spec.edges = 20000;
  spec.seed = 5;
  const CsrMatrix a = generate_power_law_graph(spec);
  // If ids were degree-sorted, row degrees would be non-increasing.
  bool monotone = true;
  for (NodeId r = 1; r < a.rows(); ++r) {
    if (a.row_nnz(r) > a.row_nnz(r - 1)) {
      monotone = false;
      break;
    }
  }
  EXPECT_FALSE(monotone);
}

TEST(PowerLawGraph, RejectsDegenerateSpecs) {
  GraphSpec spec = small_spec();
  spec.nodes = 1;
  EXPECT_THROW(generate_power_law_graph(spec), CheckError);
  spec = small_spec();
  spec.skew = 2.0;
  EXPECT_THROW(generate_power_law_graph(spec), CheckError);
}

TEST(UniformGraph, FlatterThanPowerLaw) {
  const CsrMatrix uniform = generate_uniform_graph(4000, 40000, 3);
  GraphSpec spec;
  spec.nodes = 4000;
  spec.edges = 40000;
  spec.seed = 3;
  const CsrMatrix powerlaw = generate_power_law_graph(spec);
  EXPECT_LT(top_degree_edge_share(uniform, 0.20),
            top_degree_edge_share(powerlaw, 0.20));
  // A uniform graph's top-20% share is near 20% + slack.
  EXPECT_LT(top_degree_edge_share(uniform, 0.20), 0.40);
}

TEST(UniformGraph, RespectsSymmetryFlag) {
  const CsrMatrix sym = generate_uniform_graph(100, 400, 1, true);
  EXPECT_EQ(sym.transpose(), sym);
}

TEST(Features, DensityTargetMet) {
  FeatureSpec spec;
  spec.nodes = 300;
  spec.feature_length = 200;
  spec.density = 0.35;
  spec.seed = 2;
  const CsrMatrix x = generate_features(spec);
  EXPECT_EQ(x.rows(), 300u);
  EXPECT_EQ(x.cols(), 200u);
  const double density = static_cast<double>(x.nnz()) / (300.0 * 200.0);
  EXPECT_NEAR(density, 0.35, 0.001);
}

TEST(Features, ExtremeDensities) {
  FeatureSpec spec;
  spec.nodes = 50;
  spec.feature_length = 40;
  spec.seed = 3;
  spec.density = 0.0;
  EXPECT_EQ(generate_features(spec).nnz(), 0u);
  spec.density = 1.0;
  EXPECT_EQ(generate_features(spec).nnz(), 50u * 40u);
}

TEST(Features, ValuesInRange) {
  FeatureSpec spec;
  spec.nodes = 100;
  spec.feature_length = 64;
  spec.density = 0.2;
  spec.seed = 4;
  const CsrMatrix x = generate_features(spec);
  for (const Value v : x.values()) {
    EXPECT_GE(v, 0.1f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Features, ColumnsSortedWithinRows) {
  FeatureSpec spec;
  spec.nodes = 80;
  spec.feature_length = 120;
  spec.density = 0.3;
  spec.seed = 5;
  const CsrMatrix x = generate_features(spec);
  for (NodeId r = 0; r < x.rows(); ++r) {
    const auto cols = x.row_cols(r);
    for (std::size_t k = 1; k < cols.size(); ++k) {
      EXPECT_LT(cols[k - 1], cols[k]);
    }
  }
}

TEST(Features, Deterministic) {
  FeatureSpec spec;
  spec.nodes = 60;
  spec.feature_length = 30;
  spec.density = 0.5;
  spec.seed = 6;
  EXPECT_EQ(generate_features(spec), generate_features(spec));
}

TEST(TopDegreeShare, EdgeCases) {
  CooMatrix coo(4, 4);
  coo.add(0, 1, 1.0f);
  coo.add(0, 2, 1.0f);
  coo.add(0, 3, 1.0f);
  coo.add(1, 0, 1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(std::move(coo));
  EXPECT_DOUBLE_EQ(top_degree_edge_share(a, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(top_degree_edge_share(a, 1.0), 1.0);
  // Top 25% = one node = the degree-3 node.
  EXPECT_DOUBLE_EQ(top_degree_edge_share(a, 0.25), 0.75);
}

// Skew sweep: higher skew concentrates edges more.
class SkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(SkewSweep, ShareGrowsWithSkew) {
  GraphSpec spec;
  spec.nodes = 3000;
  spec.edges = 30000;
  spec.seed = 8;
  spec.skew = GetParam();
  const double share =
      top_degree_edge_share(generate_power_law_graph(spec), 0.20);
  spec.skew = GetParam() * 0.5;
  const double flatter_share =
      top_degree_edge_share(generate_power_law_graph(spec), 0.20);
  EXPECT_GT(share, flatter_share);
}

INSTANTIATE_TEST_SUITE_P(Skews, SkewSweep, ::testing::Values(0.6, 0.8, 0.9));

// The guide-table lookup must return exactly what a binary search over
// the whole cumulative array returns, including at every bucket
// boundary and every cumulative value, where rounding decides.
class GuideTableExactness : public ::testing::TestWithParam<double> {};

TEST_P(GuideTableExactness, MatchesFullUpperBound) {
  const double skew = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{5000}}) {
    std::vector<double> cumulative(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::pow(static_cast<double>(i) + 1.0, -skew);
      cumulative[i] = acc;
    }
    const GuideTable table(cumulative);
    const double total = cumulative.back();
    const auto expected = [&](double u) {
      const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
      return std::min(static_cast<std::size_t>(it - cumulative.begin()),
                      n - 1);
    };
    const auto check = [&](double u) {
      ASSERT_EQ(table.index_of(u), expected(u))
          << "n " << n << " skew " << skew << " u " << u;
    };
    const auto check_around = [&](double u) {
      check(std::nextafter(u, -1.0));
      check(u);
      check(std::nextafter(u, 2.0 * total + 1.0));
    };

    Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
    for (int i = 0; i < 100000; ++i) check(rng.next_double() * total);
    // Bucket boundaries, computed as the table computes them.
    for (std::size_t b = 0; b <= n; ++b) {
      check_around(total * static_cast<double>(b) / static_cast<double>(n));
    }
    for (const double c : cumulative) check_around(c);
    check(-1.0);
    check(2.0 * total);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, GuideTableExactness,
                         ::testing::Values(0.0, 1.2, 1.9));

// Content pins for the two generators the dataset builder does not
// use, covering both the symmetric and the directed pair layout.
TEST(UniformGraph, MatchesPinnedFingerprint) {
  EXPECT_EQ(fingerprint_hex(graph_fingerprint(
                generate_uniform_graph(600, 5000, 13))),
            "0x769ee8be146e7294");
}

TEST(Rmat, DirectedMatchesPinnedFingerprint) {
  RmatSpec spec;
  spec.nodes = 1000;
  spec.edges = 6000;
  spec.symmetric = false;
  spec.seed = 17;
  EXPECT_EQ(fingerprint_hex(graph_fingerprint(generate_rmat_graph(spec))),
            "0x77dd290d405a540c");
}

}  // namespace
}  // namespace hymm
