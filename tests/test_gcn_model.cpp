// Tests for the multi-layer GcnModel API and the report renderers.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "core/gcn_model.hpp"
#include "core/report.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"

namespace hymm {
namespace {

CsrMatrix small_a_hat(NodeId nodes = 80, std::uint64_t seed = 3) {
  GraphSpec spec;
  spec.nodes = nodes;
  spec.edges = nodes * 6;
  spec.seed = seed;
  return normalize_adjacency(generate_power_law_graph(spec));
}

CsrMatrix small_features(NodeId nodes, NodeId dim, std::uint64_t seed) {
  FeatureSpec spec;
  spec.nodes = nodes;
  spec.feature_length = dim;
  spec.density = 0.3;
  spec.seed = seed;
  return generate_features(spec);
}

TEST(GcnModel, ValidatesLayerChain) {
  CsrMatrix a_hat = small_a_hat();
  EXPECT_THROW(GcnModel(a_hat, {}), CheckError);
  // 32 -> 16 then 8 -> 4: the chain is broken.
  EXPECT_THROW(GcnModel(a_hat, {DenseMatrix::random(32, 16, 1),
                                DenseMatrix::random(8, 4, 2)}),
               CheckError);
  // Output dimensions above 16 are allowed (multi-line rows).
  EXPECT_NO_THROW(GcnModel(a_hat, {DenseMatrix::random(32, 20, 1)}));
  EXPECT_NO_THROW(GcnModel(a_hat, {DenseMatrix::random(32, 16, 1),
                                   DenseMatrix::random(16, 4, 2)}));
}

TEST(GcnModel, WithRandomWeightsBuildsChain) {
  const GcnModel model =
      GcnModel::with_random_weights(small_a_hat(), 48, {16, 8, 4}, 7);
  ASSERT_EQ(model.layer_count(), 3u);
  EXPECT_EQ(model.weights()[0].rows(), 48u);
  EXPECT_EQ(model.weights()[0].cols(), 16u);
  EXPECT_EQ(model.weights()[2].cols(), 4u);
}

GcnModel::InferenceRequest request_for(Dataflow flow, const CsrMatrix& x) {
  GcnModel::InferenceRequest request;
  request.flow = flow;
  request.features = &x;
  return request;
}

class GcnModelAllFlows : public ::testing::TestWithParam<Dataflow> {};

TEST_P(GcnModelAllFlows, TwoLayerInferenceVerifies) {
  const CsrMatrix a_hat = small_a_hat();
  const GcnModel model =
      GcnModel::with_random_weights(a_hat, 40, {16, 8}, 11);
  const CsrMatrix x = small_features(a_hat.rows(), 40, 12);
  GcnModel::InferenceRequest request;
  request.flow = GetParam();
  request.features = &x;
  const GcnModel::InferenceResult result = model.run(request);
  EXPECT_TRUE(result.verified) << "max err " << result.max_abs_err;
  ASSERT_EQ(result.layers.size(), 2u);
  EXPECT_EQ(result.total_cycles,
            result.layers[0].stats.cycles + result.layers[1].stats.cycles);
  EXPECT_GT(result.total_dram_bytes, 0u);
  EXPECT_EQ(result.output.rows(), a_hat.rows());
  EXPECT_EQ(result.output.cols(), 8u);
}

// One layer's pinned counters: cycles, the stall vector in StallCause
// order, and DRAM bytes.
struct LayerPin {
  Cycle cycles;
  std::array<Cycle, kStallCauseCount> stalls;
  std::uint64_t dram_bytes;
};

std::array<LayerPin, 2> inference_pin(Dataflow flow) {
  switch (flow) {
    case Dataflow::kRowWiseProduct:
      return {{{40534, {16759, 0, 23569, 4, 0, 200, 0, 0, 2}, 569344},
               {3791, {2964, 0, 621, 4, 0, 200, 0, 0, 2}, 67136}}};
    case Dataflow::kOuterProduct:
      return {{{52595, {16759, 16761, 451, 18036, 0, 200, 4, 0, 384}, 3361472},
               {9680, {2964, 2966, 273, 2889, 0, 200, 4, 0, 384}, 613632}}};
    case Dataflow::kHybrid:
      return {{{41291, {16759, 0, 24182, 5, 0, 340, 2, 0, 3}, 585472},
               {4542, {2964, 0, 1204, 5, 0, 364, 2, 0, 3}, 82752}}};
  }
  return {};
}

// Exact pin of a whole two-layer inference. Layer 1's W (256 x 16
// floats, 16 KB) overflows the shrunk 8 KB DMB, so its combination
// waits on DRAM like the infer-cs benchmark's (RWP and HyMM spend more
// than half of layer 1 in dram_latency); layer 2's W fits.
// Modeled timing is integer state, so these numbers hold in every
// build type and fast-forward mode.
TEST_P(GcnModelAllFlows, TwoLayerInferenceMatchesPin) {
  const CsrMatrix a_hat = small_a_hat(200, 21);
  const GcnModel model =
      GcnModel::with_random_weights(a_hat, 256, {16, 16}, 22);
  const CsrMatrix x = small_features(a_hat.rows(), 256, 23);
  GcnModel::InferenceRequest request = request_for(GetParam(), x);
  request.config.dmb_bytes = 8 * 1024;
  const GcnModel::InferenceResult result = model.run(request);
  ASSERT_TRUE(result.verified) << "max err " << result.max_abs_err;
  ASSERT_EQ(result.layers.size(), 2u);
  const std::array<LayerPin, 2> pin = inference_pin(GetParam());
  for (std::size_t l = 0; l < pin.size(); ++l) {
    const SimStats& s = result.layers[l].stats;
    SCOPED_TRACE("layer " + std::to_string(l + 1));
    EXPECT_EQ(s.cycles, pin[l].cycles);
    for (std::size_t c = 0; c < kStallCauseCount; ++c) {
      EXPECT_EQ(s.stall_cycles[c], pin[l].stalls[c])
          << stall_cause_key(static_cast<StallCause>(c));
    }
    EXPECT_EQ(s.dram_total_bytes(), pin[l].dram_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Dataflows, GcnModelAllFlows,
                         ::testing::Values(Dataflow::kRowWiseProduct,
                                           Dataflow::kOuterProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(GcnModel, ReferenceMatchesStandaloneReference) {
  const CsrMatrix a_hat = small_a_hat(50, 5);
  const CsrMatrix x = small_features(50, 30, 6);
  const std::vector<DenseMatrix> weights = {DenseMatrix::random(30, 16, 7),
                                            DenseMatrix::random(16, 4, 8)};
  const GcnModel model(a_hat, weights);
  EXPECT_TRUE(DenseMatrix::allclose(
      model.reference(x), gcn_inference_reference(a_hat, x, weights)));
}

TEST(GcnModel, HybridPaysPreprocessingPerLayer) {
  const CsrMatrix a_hat = small_a_hat();
  const GcnModel model =
      GcnModel::with_random_weights(a_hat, 24, {16, 8}, 13);
  const CsrMatrix x = small_features(a_hat.rows(), 24, 14);
  const auto result = model.run(request_for(Dataflow::kHybrid, x));
  EXPECT_GT(result.total_preprocess_ms, 0.0);
  const auto baseline = model.run(request_for(Dataflow::kRowWiseProduct, x));
  EXPECT_EQ(baseline.total_preprocess_ms, 0.0);
}

// Pins the runtime_ms convention: cycles / (clock_ghz * 1e6)
// milliseconds.
TEST(GcnModel, RuntimeMsConventionPinned) {
  GcnModel::InferenceResult result;
  result.total_cycles = 2'000'000;
  EXPECT_DOUBLE_EQ(result.runtime_ms(1.0), 2.0);  // 2M cycles @1GHz = 2ms
  EXPECT_DOUBLE_EQ(result.runtime_ms(2.0), 1.0);  // twice the clock, half
  EXPECT_DOUBLE_EQ(result.runtime_ms(), result.runtime_ms(1.0));
}

TEST(GcnModel, ShapeMismatchesRejected) {
  const CsrMatrix a_hat = small_a_hat();
  const GcnModel model = GcnModel::with_random_weights(a_hat, 24, {16}, 1);
  const CsrMatrix wrong_dim = small_features(a_hat.rows(), 25, 2);
  EXPECT_THROW(model.run(request_for(Dataflow::kRowWiseProduct, wrong_dim)),
               CheckError);
  const CsrMatrix wrong_nodes = small_features(a_hat.rows() + 1, 24, 3);
  EXPECT_THROW(
      model.run(request_for(Dataflow::kRowWiseProduct, wrong_nodes)),
      CheckError);
  // The request API requires features.
  GcnModel::InferenceRequest request;
  EXPECT_THROW(model.run(request), CheckError);
}

TEST(Report, StatsSummaryMentionsKeyCounters) {
  SimStats stats;
  stats.cycles = 1234;
  stats.mac_ops = 777;
  stats.alu_busy_cycles = 617;
  stats.dram_read_bytes[static_cast<std::size_t>(TrafficClass::kCombined)] =
      128;
  stats.partial_bytes_peak = 4096;
  std::ostringstream out;
  print_stats_summary(stats, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("1234"), std::string::npos);
  EXPECT_NE(s.find("777"), std::string::npos);
  EXPECT_NE(s.find("50.0%"), std::string::npos);  // utilization
  EXPECT_NE(s.find("XW=128B"), std::string::npos);
}

TEST(Report, DramBreakdownSkipsEmptyClasses) {
  SimStats stats;
  EXPECT_EQ(dram_breakdown_string(stats), "none");
  stats.dram_write_bytes[static_cast<std::size_t>(TrafficClass::kOutput)] =
      64;
  EXPECT_EQ(dram_breakdown_string(stats), "AXW=64B");
}

TEST(Report, CsvHasHeaderAndOneRowPerResult) {
  ExperimentResult r;
  r.abbrev = "CR";
  r.flow = Dataflow::kHybrid;
  r.stats.cycles = 42;
  r.verified = true;
  std::ostringstream out;
  write_results_csv(std::vector<ExperimentResult>{r, r}, out);
  const std::string s = out.str();
  std::size_t lines = 0;
  for (const char c : s) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  EXPECT_NE(s.find("dataset,scale,flow"), std::string::npos);
  EXPECT_NE(s.find("CR,1,HyMM,42"), std::string::npos);
}

}  // namespace
}  // namespace hymm
