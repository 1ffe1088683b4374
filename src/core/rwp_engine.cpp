#include "core/rwp_engine.hpp"

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

namespace {
// 64-byte lines needed per dense row of `cols` floats.
std::size_t lines_per_row(NodeId cols) {
  return (static_cast<std::size_t>(cols) + kLaneCount - 1) / kLaneCount;
}
}  // namespace

RwpEngine::RwpEngine(MemorySystem& ms, const RwpEngineParams& params)
    : params_(params) {
  HYMM_CHECK(params_.sparse != nullptr && params_.b != nullptr &&
             params_.c != nullptr);
  HYMM_CHECK(params_.sparse->cols() == params_.b->rows());
  HYMM_CHECK(params_.c->cols() == params_.b->cols());
  HYMM_CHECK(params_.sparse->rows() + params_.row_offset <=
             params_.c->rows());
  HYMM_CHECK(params_.window > 0);
  chunks_ = lines_per_row(params_.b->cols());
  pending_.reserve(params_.window);
  ms.smq().attach_csr(*params_.sparse, params_.sparse_class);
}

bool RwpEngine::done(const MemorySystem& ms) const {
  return ms.smq().finished() && pending_.empty() &&
         pending_stores_.empty();
}

void RwpEngine::tick(MemorySystem& ms) {
  attributed_.reset();
  progressed_ = false;
  try_retire(ms);
  try_issue(ms);
  resolve_cause(ms);
}

void RwpEngine::resolve_cause(const MemorySystem& ms) {
  // Priority: what the retire path decided > the head load's wait
  // state > why no work could be issued > end-of-phase drain.
  if (attributed_.has_value()) {
    cause_ = *attributed_;
    return;
  }
  if (!pending_.empty()) {
    cause_ = stall_cause_for(ms.lsq().load_wait_state(pending_.front().load_id));
    return;
  }
  if (!ms.smq().finished()) {
    // Nothing in flight: either the SMQ has a non-zero we could not
    // take (LSQ lacks headroom) or the SMQ itself is still streaming.
    cause_ = ms.smq().has_ready() ? StallCause::kLsqFull
                                  : StallCause::kSmqBacklog;
    return;
  }
  cause_ = StallCause::kDrain;
}

std::span<const Value> RwpEngine::b_lanes(NodeId row,
                                          std::size_t chunk) const {
  const auto full = params_.b->row(row);
  const std::size_t begin = chunk * kLaneCount;
  const std::size_t count = std::min(kLaneCount, full.size() - begin);
  return full.subspan(begin, count);
}

std::span<Value> RwpEngine::c_lanes(NodeId row, std::size_t chunk) const {
  const auto full = params_.c->row(row);
  const std::size_t begin = chunk * kLaneCount;
  const std::size_t count = std::min(kLaneCount, full.size() - begin);
  return full.subspan(begin, count);
}

void RwpEngine::try_issue(MemorySystem& ms) {
  // One SMQ entry per cycle ("LSQ reads a single scalar data from SMQ
  // and broadcasts it to all PEs", Section IV-C); a wide dense row
  // expands into one work item per 64-byte chunk.
  if (pending_.size() + chunks_ > params_.window) return;
  if (!ms.smq().has_ready()) return;
  // Keep headroom for stores: never fill the LSQ completely.
  if (ms.lsq().free_entries() < chunks_ + 1) return;
  const SmqEntry entry = ms.smq().front();
  const Addr base = params_.b_region.line_of(entry.inner, chunks_);
  for (std::size_t chunk = 0; chunk < chunks_; ++chunk) {
    const auto load_id = ms.lsq().load(
        base + chunk * kLineBytes, params_.b_class, ms.now());
    HYMM_DCHECK(load_id.has_value());  // headroom was checked
    Pending p;
    p.row = entry.outer;
    p.col = entry.inner;
    p.value = entry.value;
    p.chunk = chunk;
    p.last_of_row = entry.last_of_outer && chunk + 1 == chunks_;
    p.load_id = *load_id;
    pending_.push_back(p);
  }
  ms.smq().pop();
  progressed_ = true;
}

void RwpEngine::try_retire(MemorySystem& ms) {
  // Pending output-line stores block retirement (the stationary
  // buffer still holds the finished row).
  while (!pending_stores_.empty()) {
    if (!ms.lsq().store(pending_stores_.front(), params_.c_class,
                        params_.c_store_kind, ms.now())) {
      attributed_ = StallCause::kLsqFull;
      return;
    }
    pending_stores_.pop_front();
    progressed_ = true;
  }
  if (pending_.empty()) return;
  Pending& head = pending_.front();
  if (!ms.lsq().is_ready(head.load_id)) return;
  if (!ms.pe().can_issue(ms.now())) {
    // can_issue flips with bare time: the very next cycle can retire,
    // so this cycle is never quiescent.
    progressed_ = true;
    attributed_ = StallCause::kAccumulatorConflict;
    return;
  }

  const NodeId out_row = head.row + params_.row_offset;
  if (params_.spatial_in_grid) {
    // Adjacency coordinate of the retiring non-zero; the region split
    // reuses the exact region2_col_boundary comparison below.
    HYMM_OBS(ms.observer(),
             spatial().on_mac(out_row, head.col,
                              head.col < params_.region2_col_boundary
                                  ? params_.spatial_region2
                                  : params_.spatial_region3,
                              head.chunk == 0));
  }
  ms.pe().mac(head.value, b_lanes(head.col, head.chunk),
              c_lanes(out_row, head.chunk), ms.now());
  ms.lsq().release_load(head.load_id);
  ++retired_;
  progressed_ = true;
  attributed_ = StallCause::kCompute;
  if (head.col < params_.region2_col_boundary) {
    ++region2_macs_;
  } else {
    ++region3_macs_;
  }
  HYMM_OBS(ms.observer(), observe_engine_window(pending_.size()));

  if (head.last_of_row) {
    const Addr base = params_.c_region.line_of(out_row, chunks_);
    for (std::size_t chunk = 0; chunk < chunks_; ++chunk) {
      pending_stores_.push_back(base + chunk * kLineBytes);
    }
  }
  pending_.pop_front();
  // Try to issue the first store in the same cycle (a one-line row
  // thus costs no extra cycle, matching the narrow-layer behaviour).
  while (!pending_stores_.empty()) {
    if (!ms.lsq().store(pending_stores_.front(), params_.c_class,
                        params_.c_store_kind, ms.now())) {
      return;
    }
    pending_stores_.pop_front();
  }
}

}  // namespace hymm
