// Warm-state sharing (WarmState, core/accelerator.hpp): keys ignore
// aggregation-only knobs, restored runs are bit-identical to cold
// ones, a snapshot keyed for another combination is refused loudly,
// a copied MemorySystem runs on independently of its source, and
// concurrent sweep cells sharing a combination phase build it exactly
// once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
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

// A follower handed a warm state keyed for another combination phase
// is a sweep-planning bug: it must fail loudly, not run cold.
TEST(CheckpointKeying, MismatchedWarmStateThrows) {
  const Problem p = make_problem();
  Accelerator acc{AcceleratorConfig{}};
  LayerRunRequest leader;
  leader.flow = Dataflow::kOuterProduct;
  leader.a_hat = &p.a_hat;
  leader.x = &p.x;
  leader.w = &p.w;
  WarmStatePtr warm;
  leader.share.publish = [&](WarmStatePtr w) { warm = std::move(w); };
  acc.run_layer(leader);
  ASSERT_NE(warm, nullptr);

  LayerRunRequest follower = leader;
  follower.share = CombinationShare{};
  follower.share.restore = warm;
  follower.flow = Dataflow::kRowWiseProduct;
  EXPECT_THROW(acc.run_layer(follower), CheckError);
}

class CheckpointFlows : public ::testing::TestWithParam<Dataflow> {};

// The headline guarantee: a run that restores the combination phase
// from a published warm state is bit-identical to the cold run —
// functional outputs, cycles, every stall bucket and DRAM byte.
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

  WarmStatePtr warm;
  LayerRunRequest leader = request;
  leader.share.publish = [&](WarmStatePtr w) { warm = std::move(w); };
  const LayerRunResult built = acc.run_layer(leader);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(built.checkpoint.enabled);
  EXPECT_TRUE(built.checkpoint.built);
  EXPECT_FALSE(built.checkpoint.restored);
  EXPECT_FALSE(built.checkpoint.key.empty());

  LayerRunRequest follower = request;
  follower.share.restore = warm;
  const LayerRunResult restored = acc.run_layer(follower);
  EXPECT_TRUE(restored.checkpoint.restored);
  EXPECT_FALSE(restored.checkpoint.built);
  EXPECT_EQ(restored.checkpoint.key, built.checkpoint.key);

  for (const LayerRunResult* r : {&built, &restored}) {
    EXPECT_EQ(r->stats.cycles, cold.stats.cycles);
    EXPECT_EQ(r->stats.stall_cycles, cold.stats.stall_cycles);
    EXPECT_EQ(r->stats.dram_total_bytes(), cold.stats.dram_total_bytes());
    EXPECT_EQ(r->combination_stats.cycles, cold.combination_stats.cycles);
    EXPECT_EQ(r->aggregation_stats.cycles, cold.aggregation_stats.cycles);
    EXPECT_EQ(r->combination, cold.combination);
    EXPECT_EQ(r->output, cold.output);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, CheckpointFlows,
                         ::testing::Values(Dataflow::kOuterProduct,
                                           Dataflow::kRowWiseProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

constexpr Addr line_at(std::uint64_t i) { return 0x1000 + i * kLineBytes; }

// The MemorySystem state two systems must agree on cycle by cycle.
void expect_same_state(const MemorySystem& a, const MemorySystem& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.stats(), b.stats()) << "cycle " << a.now();
  EXPECT_EQ(a.dram().busy_until(), b.dram().busy_until());
  EXPECT_EQ(a.dram().has_inflight_reads(), b.dram().has_inflight_reads());
  EXPECT_EQ(a.dmb().resident_lines(), b.dmb().resident_lines());
  EXPECT_EQ(a.dmb().has_pending_misses(), b.dmb().has_pending_misses());
  EXPECT_EQ(a.lsq().pending_loads(), b.lsq().pending_loads());
  EXPECT_EQ(a.lsq().ticked_active(), b.lsq().ticked_active());
  EXPECT_EQ(a.smq().backlog(), b.smq().backlog());
}

// A copy taken mid-phase — DRAM reads in flight, both MSHRs busy,
// loads parked behind it, an SMQ stream refilling — carries the whole
// state and is wired to its own members: it runs on exactly like the
// original, and ticking it never touches the original.
TEST(MemorySystemCopy, CopyRunsIndependentlyAndIdentically) {
  const Problem p = make_problem();
  AcceleratorConfig config;
  config.dmb_mshr_entries = 2;
  config.dram_latency = 10;
  config.smq_index_bytes = 1024;  // a short refill burst
  MemorySystem original(config);
  original.smq().attach_csr(p.x, TrafficClass::kFeatures);
  std::vector<LoadStoreQueue::EntryId> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ids.push_back(
        original.lsq().load(line_at(i), TrafficClass::kCombined, 0).value());
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    original.tick_components();
    original.advance();
  }
  ASSERT_TRUE(original.dram().has_inflight_reads());
  ASSERT_TRUE(original.dmb().has_pending_misses());
  ASSERT_EQ(original.lsq().load_wait_state(ids.back()),
            LoadStoreQueue::LoadWait::kUnissued);

  // Drive every component of the copy alone, counters included, and
  // drain its SMQ so refills keep arriving and issuing; the original
  // must not move.
  const SimStats stats_before = original.stats();
  const Cycle now_before = original.now();
  const Cycle busy_before = original.dram().busy_until();
  const std::size_t backlog_before = original.smq().backlog();
  {
    MemorySystem probe(original);
    ASSERT_TRUE(probe.lsq().load(line_at(9), TrafficClass::kCombined,
                                 probe.now()));
    probe.pe().merge_op(probe.now());
    std::size_t popped = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
      probe.tick_components();
      for (; probe.smq().has_ready(); ++popped) probe.smq().pop();
      probe.advance();
    }
    EXPECT_NE(probe.stats(), stats_before);
    EXPECT_GT(popped, backlog_before);
  }
  EXPECT_EQ(original.now(), now_before);
  EXPECT_EQ(original.stats(), stats_before);
  EXPECT_EQ(original.dram().busy_until(), busy_before);
  EXPECT_EQ(original.smq().backlog(), backlog_before);

  // Tick the original and a copy in lockstep, releasing loads as they
  // become ready.
  MemorySystem copy(original);
  expect_same_state(copy, original);
  std::vector<bool> released(ids.size(), false);
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (MemorySystem* ms : {&original, &copy}) ms->tick_components();
    expect_same_state(copy, original);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (released[k]) continue;
      const LoadStoreQueue::LoadWait wait =
          original.lsq().load_wait_state(ids[k]);
      ASSERT_EQ(copy.lsq().load_wait_state(ids[k]), wait)
          << "load " << k << " at cycle " << original.now();
      if (wait == LoadStoreQueue::LoadWait::kReady) {
        for (MemorySystem* ms : {&original, &copy}) {
          ms->lsq().release_load(ids[k]);
        }
        released[k] = true;
      }
    }
    for (MemorySystem* ms : {&original, &copy}) ms->advance();
  }
  EXPECT_EQ(std::count(released.begin(), released.end(), true),
            static_cast<std::ptrdiff_t>(ids.size()));
}

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
    EXPECT_EQ(cold.stats.cycles, b.stats.cycles);
    EXPECT_EQ(cold.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(cold.stats.dram_total_bytes(), b.stats.dram_total_bytes());
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
