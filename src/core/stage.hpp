/// @file
/// One stage of a GCN layer: a dataflow engine streaming one sparse
/// operand against one dense operand. Table I describes every
/// architecture as a combination stage plus one or two aggregation
/// stages, so a layer is a short list of these (see
/// docs/architecture.md "Layer stages").
#pragma once

#include <cstdint>
#include <variant>

#include "core/engine.hpp"
#include "core/op_engine.hpp"
#include "core/rwp_engine.hpp"

namespace hymm {

/// One (dataflow, sparse operand) stage: RWP stages stream the rows of
/// their CSR operand, OP stages the columns of their CSC operand.
struct LayerStage {
  std::variant<RwpEngineParams, OpEngineParams> params;
  /// Output rows [0, pinned_rows) are pinned in the DMB before the
  /// stage streams and written back once after it (HyMM region 1 with
  /// the near-memory accumulator; 0 everywhere else).
  NodeId pinned_rows = 0;
  /// The stage is skipped entirely when its operand holds no
  /// non-zero (the hybrid's region stages; a homogeneous phase always
  /// runs its engine).
  bool skip_if_empty = false;

  /// Non-zeros of the sparse operand.
  std::uint64_t nnz() const;
};

/// What one engine run of a stage retired.
struct StageRun {
  Cycle cycles = 0;                ///< run_phase cycles of the engine
  std::uint64_t region2_macs = 0;  ///< RWP stages: MACs below the boundary
  std::uint64_t region3_macs = 0;  ///< RWP stages: the remaining MACs
};

/// Runs the whole stage: pins its output rows in the DMB, streams the
/// operand, and writes the pinned rows back once. Throws CheckError
/// when the DMB cannot hold the pinned rows: partition_regions()
/// clamps region 1 to the pinnable capacity. Returns a zero StageRun
/// without touching `ms` for an empty stage marked skip_if_empty.
StageRun run_stage(MemorySystem& ms, const LayerStage& stage);

}  // namespace hymm
