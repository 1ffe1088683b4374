/// @file
/// One stage of a GCN layer: a dataflow engine streaming one sparse
/// operand against one dense operand. Table I describes every
/// architecture as a combination stage plus one or two aggregation
/// stages, so a layer is a short list of these (see
/// docs/architecture.md "Layer stages"). The exact run streams each
/// stage once over its whole extent; the sampled run
/// (core/sampling.hpp) streams seeded bands of the same stages.
#pragma once

#include <cstdint>
#include <variant>

#include "core/engine.hpp"
#include "core/op_engine.hpp"
#include "core/rwp_engine.hpp"

namespace hymm {

/// One (dataflow, sparse operand) stage. `params` is filled once for
/// the whole streamed extent: RWP stages stream rows of their CSR
/// operand, OP stages columns of their CSC operand. A band is the same
/// parameters over a slice of that dimension.
struct LayerStage {
  std::variant<RwpEngineParams, OpEngineParams> params;
  /// Mixed into the band-selection seed of sampled runs, so stages
  /// draw independent bands.
  std::uint64_t sample_tag = 0;
  /// Output rows [0, pinned_rows) are pinned in the DMB before the
  /// stage streams and written back once after it (HyMM region 1 with
  /// the near-memory accumulator; 0 everywhere else).
  NodeId pinned_rows = 0;
  /// The stage is skipped entirely when its operand holds no
  /// non-zero (the hybrid's region stages; a homogeneous phase always
  /// runs its engine).
  bool skip_if_empty = false;

  /// Streamed rows (RWP) or columns (OP) of the sparse operand.
  NodeId extent() const;
  /// Non-zeros of the sparse operand.
  std::uint64_t nnz() const;
  /// Non-zeros of the band [begin, end) of the streamed dimension.
  std::uint64_t band_nnz(NodeId begin, NodeId end) const;
};

/// What one engine run of a stage retired.
struct StageRun {
  Cycle cycles = 0;                ///< run_phase cycles of the engine
  std::uint64_t region2_macs = 0;  ///< RWP stages: MACs below the boundary
  std::uint64_t region3_macs = 0;  ///< RWP stages: the remaining MACs
};

/// Pins the stage's output rows in the DMB (no-op unless
/// pinned_rows > 0). Throws CheckError when the DMB cannot hold them:
/// partition_regions() clamps region 1 to the pinnable capacity.
void begin_stage(MemorySystem& ms, const LayerStage& stage);

/// Writes the pinned output rows back once and unpins them (no-op
/// unless pinned_rows > 0).
void end_stage(MemorySystem& ms, const LayerStage& stage);

/// Runs the stage's engine over the band [begin, end) of its streamed
/// dimension. The whole extent streams the operand itself; a narrower
/// band streams a copy of that slice, rebased onto the global row
/// (RWP) or column (OP) ids. Pinning is the caller's (begin_stage /
/// end_stage), since a sampled run pins once around all its bands.
StageRun run_stage_band(MemorySystem& ms, const LayerStage& stage,
                        NodeId begin, NodeId end);

/// Runs the whole stage: pin, stream the full extent, write back.
/// Returns a zero StageRun without touching `ms` for an empty stage
/// marked skip_if_empty.
StageRun run_stage(MemorySystem& ms, const LayerStage& stage);

}  // namespace hymm
