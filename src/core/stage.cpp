#include "core/stage.hpp"

#include "common/check.hpp"

namespace hymm {

std::uint64_t LayerStage::nnz() const {
  if (const auto* rwp = std::get_if<RwpEngineParams>(&params)) {
    return rwp->sparse->nnz();
  }
  return std::get<OpEngineParams>(params).sparse->nnz();
}

namespace {

void pin_output_rows(MemorySystem& ms, const LayerStage& stage) {
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

}  // namespace

StageRun run_stage(MemorySystem& ms, const LayerStage& stage) {
  if (stage.skip_if_empty && stage.nnz() == 0) return {};
  if (stage.pinned_rows > 0) pin_output_rows(ms, stage);
  StageRun run;
  if (const auto* rwp = std::get_if<RwpEngineParams>(&stage.params)) {
    RwpEngine engine(ms, *rwp);
    run.cycles = run_phase(ms, engine);
    run.region2_macs = engine.region2_macs();
    run.region3_macs = engine.region3_macs();
  } else {
    OpEngine engine(ms, std::get<OpEngineParams>(stage.params));
    run.cycles = run_phase(ms, engine);
  }
  if (stage.pinned_rows > 0) ms.dmb().unpin_and_writeback_outputs(ms.now());
  return run;
}

}  // namespace hymm
