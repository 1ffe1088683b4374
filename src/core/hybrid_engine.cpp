#include "core/hybrid_engine.hpp"

#include "common/check.hpp"
#include "core/stage.hpp"
#include "obs/hooks.hpp"

namespace hymm {

namespace {

// HyMM's two aggregation stages, in run order: OP over region 1 with
// its output rows pinned (when `config` enables the near-memory
// accumulator), then RWP over regions 2 and 3.
std::array<LayerStage, 2> hybrid_aggregation_stages(
    const HybridAggregationParams& params, const AcceleratorConfig& config) {
  HYMM_CHECK(params.tiled != nullptr);
  HYMM_CHECK(params.b != nullptr && params.c != nullptr);
  const RegionPartition& partition = params.tiled->partition();
  const bool accumulate = config.near_memory_accumulator;

  OpEngineParams op;
  op.sparse = &params.tiled->region1_csc();
  op.sparse_class = TrafficClass::kAdjacency;
  op.b = params.b;
  op.b_region = params.b_region;
  op.b_class = params.b_class;
  op.c = params.c;
  op.c_region = params.c_region;
  op.c_final_class = TrafficClass::kOutput;
  op.spill_region = params.spill_region;
  op.accumulate_in_buffer = accumulate;
  op.outputs_pinned = accumulate;
  op.window = config.engine_window;
  op.spatial_in_grid = true;
  op.spatial_region = SpatialRegion::kOp;

  RwpEngineParams rwp;
  rwp.sparse = &params.tiled->region23_csr();
  rwp.sparse_class = TrafficClass::kAdjacency;
  rwp.b = params.b;
  rwp.b_region = params.b_region;
  rwp.b_class = params.b_class;
  rwp.c = params.c;
  rwp.c_region = params.c_region;
  rwp.c_class = TrafficClass::kOutput;
  rwp.c_store_kind = StoreKind::kThrough;
  rwp.row_offset = partition.region1_rows;
  rwp.region2_col_boundary = partition.region2_cols;
  rwp.window = config.engine_window;
  // Spatial attribution follows the exact per-MAC region decision,
  // not the proportional region_stats split of run_hybrid_aggregation.
  rwp.spatial_in_grid = true;
  rwp.spatial_region2 = SpatialRegion::kRwp;
  rwp.spatial_region3 = SpatialRegion::kRegion3;

  return {LayerStage{.params = op,
                     .pinned_rows = accumulate ? partition.region1_rows : 0,
                     .skip_if_empty = true},
          LayerStage{.params = rwp, .skip_if_empty = true}};
}

}  // namespace

HybridAggregationInfo run_hybrid_aggregation(
    MemorySystem& ms, const HybridAggregationParams& params) {
  const std::array<LayerStage, 2> stages =
      hybrid_aggregation_stages(params, ms.config());
  const RegionPartition& partition = params.tiled->partition();
  HYMM_CHECK(params.c->rows() == partition.nodes);

  HybridAggregationInfo info;
  info.pinned_rows = partition.region1_rows;

  // --- Phase 1: OP over region 1 with pinned outputs ---
  // Finished region-1 rows stream out exactly once, at the stage's end.
  const Cycle op_start = ms.now();
  SimStats before_op = ms.stats();
  before_op.cycles = ms.now();
  info.op_phase_cycles = run_stage(ms, stages[0]).cycles;
  SimStats after_op = ms.stats();
  after_op.cycles = ms.now();
  info.op_phase_stats = stats_delta(after_op, before_op);
  HYMM_OBS(ms.observer(), region_span("region1 (OP)", op_start, ms.now()));

  // --- Phase 2: RWP over regions 2 and 3 ---
  const Cycle rwp_start = ms.now();
  const StageRun rwp = run_stage(ms, stages[1]);
  info.rwp_phase_cycles = rwp.cycles;
  info.region2_macs = rwp.region2_macs;
  info.region3_macs = rwp.region3_macs;
  SimStats after_rwp = ms.stats();
  after_rwp.cycles = ms.now();
  info.rwp_phase_stats = stats_delta(after_rwp, after_op);

  // --- Per-region breakdown ---
  info.region_stats[0] = info.op_phase_stats;
  const std::uint64_t rwp_macs = info.region2_macs + info.region3_macs;
  const double region2_share =
      rwp_macs == 0 ? 0.0
                    : static_cast<double>(info.region2_macs) /
                          static_cast<double>(rwp_macs);
  // Region 2 takes the scaled share; region 3 takes the remainder so
  // the two sum exactly to the RWP phase. MAC counts are exact.
  info.region_stats[1] = scale_stats(info.rwp_phase_stats, region2_share);
  info.region_stats[2] =
      stats_delta(info.rwp_phase_stats, info.region_stats[1]);
  info.region_stats[1].mac_ops = info.region2_macs;
  info.region_stats[2].mac_ops = info.region3_macs;

  if (Observer* obs = ms.observer(); obs != nullptr && rwp_macs > 0) {
    // Sub-span attribution mirrors the counter split: the RWP window
    // is divided proportionally to the per-region MAC counts.
    const Cycle split =
        rwp_start + static_cast<Cycle>(
                        static_cast<double>(ms.now() - rwp_start) *
                        region2_share);
    obs->region_span("region2 (RWP)", rwp_start, split);
    obs->region_span("region3 (RWP)", split, ms.now());
  }
  return info;
}

}  // namespace hymm
