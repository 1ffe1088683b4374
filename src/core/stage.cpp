#include "core/stage.hpp"

#include "common/check.hpp"

namespace hymm {

NodeId LayerStage::extent() const {
  if (const auto* rwp = std::get_if<RwpEngineParams>(&params)) {
    return rwp->sparse->rows();
  }
  return std::get<OpEngineParams>(params).sparse->cols();
}

std::uint64_t LayerStage::nnz() const {
  if (const auto* rwp = std::get_if<RwpEngineParams>(&params)) {
    return rwp->sparse->nnz();
  }
  return std::get<OpEngineParams>(params).sparse->nnz();
}

std::uint64_t LayerStage::band_nnz(NodeId begin, NodeId end) const {
  const std::vector<EdgeCount>& ptr =
      std::holds_alternative<RwpEngineParams>(params)
          ? std::get<RwpEngineParams>(params).sparse->row_ptr()
          : std::get<OpEngineParams>(params).sparse->col_ptr();
  return ptr[end] - ptr[begin];
}

void begin_stage(MemorySystem& ms, const LayerStage& stage) {
  if (stage.pinned_rows == 0) return;
  const OpEngineParams& op = std::get<OpEngineParams>(stage.params);
  const std::size_t chunks =
      (static_cast<std::size_t>(op.c->cols()) + kLaneCount - 1) / kLaneCount;
  for (NodeId r = 0; r < stage.pinned_rows; ++r) {
    const Addr base = op.c_region.line_of(r, chunks);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const bool pinned =
          ms.dmb().pin_partial(base + chunk * kLineBytes, ms.now());
      HYMM_CHECK_MSG(pinned,
                     "partition chose more region-1 rows than the DMB "
                     "can pin — partition_regions() must clamp this");
    }
  }
}

void end_stage(MemorySystem& ms, const LayerStage& stage) {
  if (stage.pinned_rows > 0) ms.dmb().unpin_and_writeback_outputs(ms.now());
}

StageRun run_stage_band(MemorySystem& ms, const LayerStage& stage,
                        NodeId begin, NodeId end) {
  const bool whole = begin == 0 && end == stage.extent();
  StageRun run;
  if (const auto* whole_rwp = std::get_if<RwpEngineParams>(&stage.params)) {
    RwpEngineParams rwp = *whole_rwp;
    CsrMatrix band;
    if (!whole) {
      band = rwp.sparse->submatrix(begin, end, 0, rwp.sparse->cols());
      rwp.sparse = &band;
      rwp.row_offset += begin;
    }
    RwpEngine engine(ms, rwp);
    run.cycles = run_phase(ms, engine);
    run.region2_macs = engine.region2_macs();
    run.region3_macs = engine.region3_macs();
    return run;
  }
  OpEngineParams op = std::get<OpEngineParams>(stage.params);
  CscMatrix band;
  if (!whole) {
    band = op.sparse->submatrix_cols(begin, end);
    op.sparse = &band;
    op.col_offset += begin;
  }
  OpEngine engine(ms, op);
  run.cycles = run_phase(ms, engine);
  return run;
}

StageRun run_stage(MemorySystem& ms, const LayerStage& stage) {
  if (stage.skip_if_empty && stage.nnz() == 0) return {};
  begin_stage(ms, stage);
  const StageRun run = run_stage_band(ms, stage, 0, stage.extent());
  end_stage(ms, stage);
  return run;
}

}  // namespace hymm
