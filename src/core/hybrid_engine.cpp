#include "core/hybrid_engine.hpp"

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

HybridAggregationInfo run_hybrid_aggregation(
    MemorySystem& ms, const HybridAggregationParams& params) {
  HYMM_CHECK(params.tiled != nullptr);
  HYMM_CHECK(params.b != nullptr && params.c != nullptr);
  const RegionPartition& partition = params.tiled->partition();
  const CscMatrix& op_csc = params.tiled->region1_csc();
  const CsrMatrix& rwp_csr = params.tiled->region23_csr();
  HYMM_CHECK(params.c->rows() == partition.nodes);

  HybridAggregationInfo info;
  info.pinned_rows = partition.region1_rows;
  const std::size_t chunks =
      (static_cast<std::size_t>(params.b->cols()) + kLaneCount - 1) /
      kLaneCount;

  // --- Phase 1: OP over region 1 with pinned outputs ---
  const bool accumulate = ms.config().near_memory_accumulator;
  const Cycle op_start = ms.now();
  SimStats before_op = ms.stats();
  before_op.cycles = ms.now();
  if (partition.region1_rows > 0 && op_csc.nnz() > 0) {
    if (accumulate) {
      for (NodeId r = 0; r < partition.region1_rows; ++r) {
        const Addr base = params.c_region.line_of(r, chunks);
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          const bool pinned =
              ms.dmb().pin_partial(base + chunk * kLineBytes, ms.now());
          HYMM_CHECK_MSG(pinned,
                         "partition chose more region-1 rows than the DMB "
                         "can pin — partition_regions() must clamp this");
        }
      }
    }
    OpEngineParams op;
    op.sparse = &op_csc;
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
    op.window = ms.config().engine_window;
    op.spatial_in_grid = true;
    op.spatial_region = SpatialRegion::kOp;
    OpEngine engine(ms, op);
    info.op_phase_cycles = run_phase(ms, engine);
    // Finished region-1 rows stream out exactly once.
    if (accumulate) ms.dmb().unpin_and_writeback_outputs(ms.now());
  }
  SimStats after_op = ms.stats();
  after_op.cycles = ms.now();
  info.op_phase_stats = stats_delta(after_op, before_op);
  HYMM_OBS(ms.observer(), region_span("region1 (OP)", op_start, ms.now()));

  // --- Phase 2: RWP over regions 2 and 3 ---
  const Cycle rwp_start = ms.now();
  if (rwp_csr.nnz() > 0) {
    RwpEngineParams rwp;
    rwp.sparse = &rwp_csr;
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
    rwp.window = ms.config().engine_window;
    // Spatial attribution follows the exact per-MAC region decision,
    // not the proportional region_stats split below.
    rwp.spatial_in_grid = true;
    rwp.spatial_region2 = SpatialRegion::kRwp;
    rwp.spatial_region3 = SpatialRegion::kRegion3;
    RwpEngine engine(ms, rwp);
    info.rwp_phase_cycles = run_phase(ms, engine);
    info.region2_macs = engine.region2_macs();
    info.region3_macs = engine.region3_macs();
  }
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
