// Integration tests: the full accelerator (combination + aggregation)
// under every dataflow, verified against the golden GCN model, plus
// the experiment runner.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/accelerator.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"

namespace hymm {
namespace {

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
  DenseMatrix expected;  // pre-activation aggregation
};

Problem make_problem(NodeId nodes, EdgeCount edges, NodeId features,
                     double feature_density, std::uint64_t seed) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = features;
  fspec.density = feature_density;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(features, 16, seed + 2);
  p.expected =
      gcn_layer_reference(p.a_hat, p.x, p.w, /*apply_relu=*/false)
          .aggregation;
  return p;
}

class AllDataflows : public ::testing::TestWithParam<Dataflow> {};

TEST_P(AllDataflows, LayerOutputMatchesGoldenModel) {
  const Problem p = make_problem(150, 1200, 64, 0.2, 42);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult result =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w);
  EXPECT_TRUE(DenseMatrix::allclose(result.output, p.expected, 1e-3, 1e-4))
      << to_string(GetParam()) << " max err "
      << DenseMatrix::max_abs_diff(result.output, p.expected);
  EXPECT_GT(result.stats.cycles, 0u);
  EXPECT_GT(result.stats.mac_ops, 0u);
  EXPECT_GT(result.combination_stats.cycles, 0u);
  EXPECT_GT(result.aggregation_stats.cycles, 0u);
  EXPECT_EQ(result.stats.cycles, result.combination_stats.cycles +
                                     result.aggregation_stats.cycles);
}

TEST_P(AllDataflows, CombinationMatchesGoldenModel) {
  const Problem p = make_problem(100, 700, 48, 0.3, 7);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult result =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w);
  const DenseMatrix xw =
      gcn_layer_reference(p.a_hat, p.x, p.w, false).combination;
  EXPECT_TRUE(DenseMatrix::allclose(result.combination, xw, 1e-3, 1e-4));
}

TEST_P(AllDataflows, MacCountEqualsNnzWork) {
  const Problem p = make_problem(80, 600, 32, 0.25, 9);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult result =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w);
  // Exactly one scalar-vector MAC per non-zero of X (combination)
  // plus one per non-zero of A_hat (aggregation).
  EXPECT_EQ(result.stats.mac_ops, p.x.nnz() + p.a_hat.nnz());
}

INSTANTIATE_TEST_SUITE_P(Dataflows, AllDataflows,
                         ::testing::Values(Dataflow::kRowWiseProduct,
                                           Dataflow::kOuterProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Accelerator, HybridReportsPartitionAndPreprocessing) {
  const Problem p = make_problem(200, 2000, 32, 0.2, 11);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult result =
      accelerator.run_layer(Dataflow::kHybrid, p.a_hat, p.x, p.w);
  EXPECT_EQ(result.partition.nodes, 200u);
  EXPECT_EQ(result.partition.region1_rows, 40u);  // 20% of 200
  EXPECT_GE(result.preprocess_ms, 0.0);
  EXPECT_EQ(result.hybrid_info.pinned_rows, 40u);
}

TEST(Accelerator, BaselinesDoNotPreprocess) {
  const Problem p = make_problem(60, 400, 24, 0.3, 13);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult result =
      accelerator.run_layer(Dataflow::kRowWiseProduct, p.a_hat, p.x, p.w);
  EXPECT_EQ(result.preprocess_ms, 0.0);
  EXPECT_EQ(result.partition.nodes, 0u);
}

TEST(Accelerator, ShapeValidation) {
  const Problem p = make_problem(50, 300, 24, 0.3, 17);
  Accelerator accelerator{AcceleratorConfig{}};
  const DenseMatrix bad_w = DenseMatrix::random(99, 16, 1);
  EXPECT_THROW(
      accelerator.run_layer(Dataflow::kRowWiseProduct, p.a_hat, p.x, bad_w),
      CheckError);
}

TEST(Accelerator, WideLayerDimensionVerifies) {
  // Layer dimension 32 = two lines per dense row; every dataflow must
  // still match the golden model.
  GraphSpec gspec;
  gspec.nodes = 80;
  gspec.edges = 600;
  gspec.seed = 29;
  const CsrMatrix a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = 80;
  fspec.feature_length = 40;
  fspec.density = 0.3;
  fspec.seed = 30;
  const CsrMatrix x = generate_features(fspec);
  const DenseMatrix w = DenseMatrix::random(40, 32, 31);
  const DenseMatrix expected =
      gcn_layer_reference(a_hat, x, w, false).aggregation;
  Accelerator accelerator{AcceleratorConfig{}};
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    const LayerRunResult r = accelerator.run_layer(flow, a_hat, x, w);
    EXPECT_TRUE(DenseMatrix::allclose(r.output, expected, 1e-3, 1e-4))
        << to_string(flow);
    // Two chunk MACs per non-zero.
    EXPECT_EQ(r.stats.mac_ops, (x.nnz() + a_hat.nnz()) * 2)
        << to_string(flow);
  }
}

TEST(Accelerator, DramTrafficIsConsistent) {
  const Problem p = make_problem(120, 900, 40, 0.25, 19);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    Accelerator accelerator{AcceleratorConfig{}};
    const LayerRunResult r = accelerator.run_layer(flow, p.a_hat, p.x, p.w);
    // Total bytes equal the per-class sums.
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
      sum += r.stats.dram_read_bytes[i] + r.stats.dram_write_bytes[i];
    }
    EXPECT_EQ(sum, r.stats.dram_total_bytes());
    // Output writes cover at least the touched output rows once.
    EXPECT_GT(r.stats.dram_write_bytes[static_cast<std::size_t>(
                  TrafficClass::kOutput)],
              0u)
        << to_string(flow);
    // ALU can never be busy more than one op per cycle.
    EXPECT_LE(r.stats.alu_busy_cycles, r.stats.cycles);
  }
}

TEST(Accelerator, HybridUnpermutesOutputRows) {
  // Use wildly asymmetric node degrees so a permutation bug would
  // misplace rows.
  const Problem p = make_problem(90, 1000, 24, 0.4, 23);
  Accelerator accelerator{AcceleratorConfig{}};
  const LayerRunResult hybrid =
      accelerator.run_layer(Dataflow::kHybrid, p.a_hat, p.x, p.w);
  const LayerRunResult rwp =
      accelerator.run_layer(Dataflow::kRowWiseProduct, p.a_hat, p.x, p.w);
  EXPECT_TRUE(
      DenseMatrix::allclose(hybrid.output, rwp.output, 1e-3, 1e-4));
}

TEST(Runner, ExperimentVerifiesAndFillsMetrics) {
  DatasetSpec spec = paper_datasets()[0];  // Cora
  const DataflowComparison comparison = compare_dataflows(
      spec, AcceleratorConfig{},
      {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct, Dataflow::kHybrid},
      /*scale=*/0.05, /*seed=*/1);
  ASSERT_EQ(comparison.results.size(), 3u);
  for (const ExperimentResult& r : comparison.results) {
    EXPECT_TRUE(r.verified) << to_string(r.flow) << " err " << r.max_abs_err;
    EXPECT_GT(r.stats.cycles, 0u);
    EXPECT_GT(r.stats.dram_total_bytes(), 0u);
    EXPECT_GT(r.stats.alu_utilization(), 0.0);
    EXPECT_LE(r.stats.alu_utilization(), 1.0);
    EXPECT_GE(r.stats.dmb_hit_rate(), 0.0);
    EXPECT_LE(r.stats.dmb_hit_rate(), 1.0);
  }
  EXPECT_EQ(&comparison.by_flow(Dataflow::kHybrid),
            &comparison.results[2]);
  EXPECT_THROW(
      compare_dataflows(spec, AcceleratorConfig{}, {}, 0.05, 1)
          .by_flow(Dataflow::kHybrid),
      CheckError);
}

TEST(Runner, HybridNeverSlowerThanBothBaselinesOnSkewedGraph) {
  // The paper's headline claim in miniature: on a power-law graph
  // that fits the simulator budget, HyMM at least matches the best
  // homogeneous dataflow.
  DatasetSpec spec = paper_datasets()[1];  // Amazon-Photo
  const DataflowComparison comparison =
      compare_dataflows(spec, AcceleratorConfig{},
                        {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
                         Dataflow::kHybrid},
                        /*scale=*/0.1, /*seed=*/2);
  const auto& op = comparison.by_flow(Dataflow::kOuterProduct);
  const auto& rwp = comparison.by_flow(Dataflow::kRowWiseProduct);
  const auto& hymm = comparison.by_flow(Dataflow::kHybrid);
  EXPECT_LT(hymm.stats.cycles, op.stats.cycles);
  EXPECT_LE(hymm.stats.cycles, static_cast<Cycle>(rwp.stats.cycles * 1.05));
  EXPECT_LT(hymm.stats.dram_total_bytes(), op.stats.dram_total_bytes());
}

}  // namespace
}  // namespace hymm
