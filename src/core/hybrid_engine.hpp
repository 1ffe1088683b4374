/// @file
/// HyMM's hybrid aggregation (Sections III and IV): OP over region 1
/// with the partial-output rows pinned in the DMB and merged by the
/// near-memory accumulator, followed by RWP over regions 2 and 3.
/// "We propose executing the OP mode first to prevent partial outputs
/// from being evicted to off-chip memory" — the pin + phase order
/// below implement exactly that.
#pragma once

#include <array>

#include "core/engine.hpp"
#include "graph/partition.hpp"
#include "linalg/dense.hpp"

namespace hymm {

/// Inputs of one hybrid aggregation run (`run_hybrid_aggregation`).
struct HybridAggregationParams {
  /// Paper-style global 3-region split (graph/partition.hpp).
  const TiledAdjacency* tiled = nullptr;

  const DenseMatrix* b = nullptr;  ///< XW, row-per-node
  AddressRegion b_region;          ///< address range backing `b`
  /// Traffic class XW fetches are accounted under.
  TrafficClass b_class = TrafficClass::kCombined;

  DenseMatrix* c = nullptr;  ///< AXW output
  AddressRegion c_region;    ///< address range backing `c`

  /// Spill heap, used only by the no-accumulator ablation (the Fig 10
  /// "w/o accumulator" series): region 1 then appends partial records
  /// instead of pinning + merging in place.
  AddressRegion spill_region;
};

/// Per-phase and per-region outcome of one hybrid aggregation run.
struct HybridAggregationInfo {
  Cycle op_phase_cycles = 0;   ///< cycles spent in the OP phase
  Cycle rwp_phase_cycles = 0;  ///< cycles spent in the RWP phase
  NodeId pinned_rows = 0;      ///< region-1 rows pinned in the DMB
  /// Per-phase counter deltas (the OP phase includes the pin setup and
  /// the unpin writeback of the finished region-1 rows).
  SimStats op_phase_stats;
  /// RWP-phase counter deltas (regions 2 and 3 together).
  SimStats rwp_phase_stats;

  /// Per-region breakdown. region_stats[0] is the region-1 OP phase
  /// exactly; the shared RWP phase is split between region_stats[1]
  /// (hot columns below the region-2 boundary) and region_stats[2] by
  /// the exact per-region MAC counts the engine retires — mac_ops are
  /// exact, the remaining counters are attributed proportionally
  /// (region-2/3 non-zeros interleave within rows, so cycle-exact
  /// attribution is ill-defined; see DESIGN.md "Observability").
  std::array<SimStats, 3> region_stats{};
  std::uint64_t region2_macs = 0;  ///< exact region-2 MAC count
  std::uint64_t region3_macs = 0;  ///< exact region-3 MAC count
};

/// Runs both phases to completion on `ms` and returns per-phase cycle
/// counts. The caller provides a memory system that already holds
/// whatever the combination phase left in the unified buffer.
HybridAggregationInfo run_hybrid_aggregation(
    MemorySystem& ms, const HybridAggregationParams& params);

}  // namespace hymm
