// Warm-state checkpoint/restore (sim/checkpoint.hpp): blob framing
// rejects corruption, keys ignore aggregation-only knobs, restored
// runs are bit-identical to cold ones, a corrupted blob degrades to a
// cold run — never an error — and concurrent sweep cells sharing a
// combination phase build it exactly once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/accelerator.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "sim/checkpoint.hpp"
#include "sweep/sweep.hpp"

namespace hymm {
namespace {

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

Problem make_problem(NodeId nodes = 200, EdgeCount edges = 2400,
                     NodeId features = 64, double density = 0.3,
                     std::uint64_t seed = 42) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = features;
  fspec.density = density;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(features, 16, seed + 2);
  return p;
}

std::vector<std::byte> payload_of(std::initializer_list<int> values) {
  StateWriter w;
  for (int v : values) w.put_u32(static_cast<std::uint32_t>(v));
  return w.take();
}

TEST(CheckpointBlob, SealOpenRoundTrip) {
  const CheckpointKey key{0x1234, 0xabcd};
  const std::vector<std::byte> payload = payload_of({1, 2, 3, 4});
  const std::vector<std::byte> blob = seal_checkpoint(key, payload);

  const std::byte* view = nullptr;
  std::size_t size = 0;
  ASSERT_TRUE(open_checkpoint(blob, key, &view, &size));
  ASSERT_EQ(size, payload.size());
  EXPECT_EQ(std::vector<std::byte>(view, view + size), payload);
}

TEST(CheckpointBlob, RejectsWrongKey) {
  const CheckpointKey key{1, 2};
  const std::vector<std::byte> blob = seal_checkpoint(key, payload_of({7}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  EXPECT_FALSE(open_checkpoint(blob, CheckpointKey{1, 3}, &view, &size));
  EXPECT_FALSE(open_checkpoint(blob, CheckpointKey{9, 2}, &view, &size));
}

TEST(CheckpointBlob, RejectsEveryFlippedByte) {
  const CheckpointKey key{42, 43};
  const std::vector<std::byte> good = seal_checkpoint(key, payload_of({5, 6}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::byte> bad = good;
    bad[i] ^= std::byte{0x01};
    EXPECT_FALSE(open_checkpoint(bad, key, &view, &size))
        << "flip at byte " << i << " accepted";
  }
}

TEST(CheckpointBlob, RejectsTruncation) {
  const CheckpointKey key{42, 43};
  const std::vector<std::byte> good = seal_checkpoint(key, payload_of({5, 6}));
  const std::byte* view = nullptr;
  std::size_t size = 0;
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, good.size() - 1}) {
    std::vector<std::byte> bad(good.begin(), good.begin() + keep);
    EXPECT_FALSE(open_checkpoint(bad, key, &view, &size))
        << "truncated to " << keep << " bytes accepted";
  }
}

// The config half deliberately excludes the tiling threshold (it only
// affects aggregation), so all tuner candidates share one checkpoint;
// any timing-relevant knob — or the streamed inputs — must split it.
TEST(CheckpointKeying, ThresholdInvariantButTimingSensitive) {
  const Problem p = make_problem();
  AcceleratorConfig base;
  AcceleratorConfig other_threshold = base;
  other_threshold.tiling_threshold = 0.5;
  AcceleratorConfig other_dmb = base;
  other_dmb.dmb_bytes /= 2;

  const Dataflow flow = Dataflow::kRowWiseProduct;
  const CheckpointKey key = combination_checkpoint_key(p.x, p.w, base, flow);
  EXPECT_EQ(combination_checkpoint_key(p.x, p.w, other_threshold, flow), key);
  EXPECT_NE(combination_checkpoint_key(p.x, p.w, other_dmb, flow), key);

  const DenseMatrix other_w = DenseMatrix::random(p.w.rows(), p.w.cols(), 99);
  EXPECT_NE(combination_checkpoint_key(p.x, other_w, base, flow), key);

  // OP streams CSC through a different engine than RWP's CSR pipeline.
  EXPECT_NE(combination_checkpoint_key(p.x, p.w, base,
                                       Dataflow::kOuterProduct),
            key);
}

class CheckpointFlows : public ::testing::TestWithParam<Dataflow> {};

// The headline guarantee: a run that restores the combination phase
// from a published checkpoint is bit-identical to the cold run —
// functional outputs, cycles, every stall bucket and DRAM byte. A
// blob that fails validation falls back to a cold run.
TEST_P(CheckpointFlows, RestoredRunIsBitIdenticalToCold) {
  const Problem p = make_problem();
  Accelerator acc{AcceleratorConfig{}};

  LayerRunRequest request;
  request.flow = GetParam();
  request.a_hat = &p.a_hat;
  request.x = &p.x;
  request.w = &p.w;
  const LayerRunResult cold = acc.run_layer(request);
  EXPECT_FALSE(cold.checkpoint.enabled);

  CheckpointBlob blob;
  LayerRunRequest leader = request;
  leader.share.publish = [&](CheckpointBlob b) { blob = std::move(b); };
  const LayerRunResult built = acc.run_layer(leader);
  ASSERT_NE(blob, nullptr);
  EXPECT_TRUE(built.checkpoint.enabled);
  EXPECT_TRUE(built.checkpoint.built);
  EXPECT_FALSE(built.checkpoint.restored);
  EXPECT_FALSE(built.checkpoint.key.empty());

  LayerRunRequest follower = request;
  follower.share.restore = blob;
  const LayerRunResult restored = acc.run_layer(follower);
  EXPECT_TRUE(restored.checkpoint.restored);
  EXPECT_FALSE(restored.checkpoint.built);
  EXPECT_EQ(restored.checkpoint.key, built.checkpoint.key);

  std::vector<std::byte> flipped = *blob;
  flipped[flipped.size() / 2] ^= std::byte{0x01};
  follower.share.restore =
      std::make_shared<const std::vector<std::byte>>(std::move(flipped));
  const LayerRunResult fallback = acc.run_layer(follower);
  EXPECT_TRUE(fallback.checkpoint.enabled);
  EXPECT_FALSE(fallback.checkpoint.restored);

  for (const LayerRunResult* warm : {&built, &restored, &fallback}) {
    EXPECT_EQ(warm->stats.cycles, cold.stats.cycles);
    EXPECT_EQ(warm->stats.stall_cycles, cold.stats.stall_cycles);
    EXPECT_EQ(warm->stats.dram_total_bytes(), cold.stats.dram_total_bytes());
    EXPECT_EQ(warm->combination_stats.cycles, cold.combination_stats.cycles);
    EXPECT_EQ(warm->aggregation_stats.cycles, cold.aggregation_stats.cycles);
    EXPECT_EQ(warm->combination, cold.combination);
    EXPECT_EQ(warm->output, cold.output);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, CheckpointFlows,
                         ::testing::Values(Dataflow::kOuterProduct,
                                           Dataflow::kRowWiseProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// Sweep integration under a real thread race: four configs differing
// only in the tiling threshold share one workload, so eight workers
// must simulate the combination phase exactly once — and every cell
// must match its cold run bit-for-bit.
TEST(CheckpointSweep, ConcurrentCellsShareOneBuild) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.1;
  spec.seed = 42;
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (double threshold : {0.1, 0.2, 0.3, 0.4}) {
    AcceleratorConfig config;
    config.tiling_threshold = threshold;
    spec.configs.push_back(config);
  }

  SweepOptions options;
  options.threads = 8;
  SweepRunner runner(options);
  const SweepRun warm = runner.run(spec);
  const std::shared_ptr<const PreparedWorkload> prepared =
      runner.cache().get(spec.datasets.front(), 0.1, 42);

  ASSERT_EQ(warm.cells.size(), 4u);
  std::size_t builders = 0;
  std::size_t restorers = 0;
  for (const SweepCellResult& cell : warm.cells) {
    SCOPED_TRACE("config " + std::to_string(cell.cell.config_index));
    ExperimentRequest request;
    request.workload = &prepared->workload();
    request.a_hat = &prepared->a_hat();
    request.weights = &prepared->weights();
    request.reference = &prepared->reference();
    request.flow = Dataflow::kHybrid;
    request.config = cell.cell.config;
    const ExperimentResult cold = run_experiment(request);
    const ExperimentResult& b = cell.result;
    EXPECT_EQ(cold.cycles, b.cycles);
    EXPECT_EQ(cold.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(cold.dram_total_bytes, b.dram_total_bytes);
    EXPECT_TRUE(b.verified);
    EXPECT_TRUE(b.checkpoint.enabled);
    EXPECT_FALSE(cell.reused_from.has_value());
    builders += b.checkpoint.built;
    restorers += b.checkpoint.restored;
  }
  EXPECT_EQ(builders, 1u);
  EXPECT_EQ(restorers, 3u);
  EXPECT_TRUE(warm.cells.front().result.checkpoint.built);
}

}  // namespace
}  // namespace hymm
