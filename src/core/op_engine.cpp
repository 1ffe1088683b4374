#include "core/op_engine.hpp"

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

namespace {
// A spilled partial record carries a 64-byte vector plus a 4-byte row
// index — the 68 bytes of an LSQ entry (Table III).
constexpr std::size_t kPartialRecordBytes = 68;
// Packed records cross one extra line per this many records
// (16 * 68 B = 17 lines).
constexpr std::uint64_t kRecordsPerExtraLine = 16;

std::size_t lines_per_row(NodeId cols) {
  return (static_cast<std::size_t>(cols) + kLaneCount - 1) / kLaneCount;
}
}  // namespace

OpEngine::OpEngine(MemorySystem& ms, const OpEngineParams& params)
    : params_(params) {
  HYMM_CHECK(params_.sparse != nullptr && params_.b != nullptr &&
             params_.c != nullptr);
  HYMM_CHECK(params_.sparse->cols() <= params_.b->rows());
  HYMM_CHECK(params_.c->cols() == params_.b->cols());
  HYMM_CHECK(params_.sparse->rows() <= params_.c->rows());
  HYMM_CHECK(params_.window > 0);
  HYMM_CHECK_MSG(!params_.outputs_pinned || params_.accumulate_in_buffer,
                 "pinned outputs require the near-memory accumulator");
  chunks_ = lines_per_row(params_.b->cols());
  HYMM_CHECK_MSG(params_.window >= chunks_,
                 "engine window smaller than one dense row");
  staged_.reserve(chunks_);
  pending_.reserve(params_.window);

  // Count distinct output rows (needed for the flush stage).
  std::vector<bool> touched(params_.sparse->rows(), false);
  for (const NodeId r : params_.sparse->row_idx()) touched[r] = true;
  rows_touched_ = static_cast<NodeId>(
      std::count(touched.begin(), touched.end(), true));

  spills_before_ = ms.stats().dmb_partial_spills;
  ms.smq().attach_csc(*params_.sparse, params_.sparse_class);
}

bool OpEngine::done(const MemorySystem& ms) const {
  (void)ms;
  return stage_ == Stage::kDone;
}

void OpEngine::tick(MemorySystem& ms) {
  progressed_ = false;
  switch (stage_) {
    case Stage::kStream:
      tick_stream(ms);
      break;
    case Stage::kMergeSetup: {
      progressed_ = true;  // the stage transition below is observable
      cause_ = StallCause::kMergeRmw;
      if (params_.accumulate_in_buffer) {
        records_to_merge_ =
            ms.stats().dmb_partial_spills - spills_before_;
        merge_record_bytes_ = kLineBytes;
      } else {
        records_to_merge_ = appended_records_;
        merge_record_bytes_ = kPartialRecordBytes;
        merge_rows_ = std::make_unique<MergeRowSet>(
            ms.config().dmb_lines(),
            static_cast<NodeId>(params_.sparse->rows() * chunks_));
      }
      merge_ready_cycle_ = ms.now() + ms.config().dram_latency;
      stage_ = records_to_merge_ > 0 ? Stage::kMerge : Stage::kFlush;
      break;
    }
    case Stage::kMerge:
      tick_merge(ms);
      break;
    case Stage::kFlush:
      tick_flush(ms);
      break;
    case Stage::kDone:
      cause_ = StallCause::kDrain;
      break;
  }
}

std::span<const Value> OpEngine::b_lanes(NodeId row,
                                         std::size_t chunk) const {
  const auto full = params_.b->row(row);
  const std::size_t begin = chunk * kLaneCount;
  return full.subspan(begin, std::min(kLaneCount, full.size() - begin));
}

std::span<Value> OpEngine::c_lanes(NodeId row, std::size_t chunk) const {
  const auto full = params_.c->row(row);
  const std::size_t begin = chunk * kLaneCount;
  return full.subspan(begin, std::min(kLaneCount, full.size() - begin));
}

void OpEngine::append_partial_record(MemorySystem& ms) {
  const Addr line =
      params_.spill_region.base +
      (appended_bytes_ / kLineBytes) * kLineBytes;
  // Back-pressure was checked by the caller; the extra overhead line
  // books the bandwidth the 68-byte packing costs beyond one line per
  // 16 records.
  ms.dram().issue_write(line, TrafficClass::kPartial, ms.now());
  ++appended_records_;
  appended_bytes_ += kLineBytes;
  if (appended_records_ % kRecordsPerExtraLine == 0) {
    ms.dram().issue_write(params_.spill_region.base + appended_bytes_,
                          TrafficClass::kPartial, ms.now());
    appended_bytes_ += kLineBytes;
  }
  ms.stats().note_partial_bytes(
      static_cast<std::int64_t>(kPartialRecordBytes));
}

void OpEngine::tick_stream(MemorySystem& ms) {
  // Cycle accounting: the retire slot decides the cycle's cause; when
  // it neither retires nor identifies a blocker, the fall-through
  // after issue charges the pipeline-fill state.
  std::optional<StallCause> attributed;

  // --- Retire (one chunk-sized MAC per cycle) ---
  bool may_retire = true;
  if (store_stalled_) {
    if (ms.lsq().store(stalled_store_line_, TrafficClass::kPartial,
                       StoreKind::kAccumulate, ms.now())) {
      store_stalled_ = false;
      progressed_ = true;
    } else {
      may_retire = false;
      attributed = StallCause::kAccumulatorConflict;
    }
  }
  if (may_retire && !pending_.empty()) {
    Pending& head = pending_.front();
    const bool stationary_ready =
        !head.has_load || ms.lsq().is_ready(head.load_id);
    // Append mode writes its partial record immediately at retire, so
    // the PE stalls when the DRAM write buffer is full — the paper's
    // "wasted cycles caused by merging partial outputs and waiting
    // for off-chip memory access" (Section V-B).
    const bool sink_ready = params_.accumulate_in_buffer ||
                            ms.dram().can_accept_write(ms.now());
    if (!stationary_ready) {
      attributed = stall_cause_for(ms.lsq().load_wait_state(head.load_id));
    } else if (!sink_ready) {
      attributed = StallCause::kDramBandwidth;
    } else if (!ms.pe().can_issue(ms.now())) {
      // Time-flipping predicate: never quiescent while PE-blocked.
      progressed_ = true;
      attributed = StallCause::kAccumulatorConflict;
    } else if (ms.lsq().free_entries() == 0) {
      attributed = StallCause::kLsqFull;
    }
    if (stationary_ready && sink_ready && ms.pe().can_issue(ms.now()) &&
        ms.lsq().free_entries() > 0) {
      attributed = StallCause::kCompute;
      progressed_ = true;
      const NodeId out_row = head.row;
      if (params_.spatial_in_grid) {
        // Adjacency coordinate of the retiring non-zero: focus its
        // tile so subsequent cycles/DRAM/DMB traffic attribute there.
        HYMM_OBS(ms.observer(),
                 spatial().on_mac(out_row, head.col, params_.spatial_region,
                                  head.chunk == 0));
      }
      ms.pe().mac(head.value, b_lanes(head.col, head.chunk),
                  c_lanes(out_row, head.chunk), ms.now());
      if (head.has_load) {
        ms.lsq().release_load(head.load_id);
        if (head.chunk == 0 && pf_ahead_ > 0) --pf_ahead_;
      }

      HYMM_OBS(ms.observer(), observe_engine_window(pending_.size()));
      if (params_.accumulate_in_buffer) {
        const Addr line =
            params_.c_region.line_of(out_row, chunks_) +
            head.chunk * kLineBytes;
        if (!ms.lsq().store(line, TrafficClass::kPartial,
                            StoreKind::kAccumulate, ms.now())) {
          store_stalled_ = true;
          stalled_store_line_ = line;
        }
      } else {
        append_partial_record(ms);
      }
      pending_.pop_front();
    }
  }

  // --- Issue (one SMQ entry per cycle, expanded per chunk) ---
  if (pending_.size() + chunks_ <= params_.window && ms.smq().has_ready() &&
      ms.lsq().free_entries() >= chunks_ + 1) {
    const SmqEntry entry = ms.smq().front();
    const Addr base = params_.b_region.line_of(entry.outer, chunks_);
    bool ok = true;
    staged_.clear();
    for (std::size_t chunk = 0; chunk < chunks_ && ok; ++chunk) {
      Pending p;
      p.col = entry.outer;
      p.row = entry.inner;
      p.value = entry.value;
      p.chunk = chunk;
      if (entry.first_of_outer) {
        const auto load_id = ms.lsq().load(base + chunk * kLineBytes,
                                           params_.b_class, ms.now());
        if (!load_id.has_value()) {
          ok = false;
          break;
        }
        p.has_load = true;
        p.load_id = *load_id;
      }
      staged_.push_back(p);
    }
    if (ok) {
      for (Pending& p : staged_) pending_.push_back(p);
      ms.smq().pop();
      progressed_ = true;
    } else {
      // Release whatever we allocated and retry next cycle.
      for (Pending& p : staged_) {
        if (p.has_load) {
          // Entries are not ready yet; drop them by marking consumed.
          // (release_load requires readiness, so we simply leave them;
          // this path is unreachable because free_entries was checked.)
          HYMM_CHECK_MSG(false, "LSQ allocation failed despite headroom");
        }
      }
    }
  }

  // --- Pointer-guided prefetch of upcoming stationary rows ---
  const std::size_t depth = ms.config().op_prefetch_columns;
  std::size_t scanned = 0;  // bound per-cycle work over empty columns
  while (depth > 0 && pf_ahead_ < depth &&
         pf_col_ < params_.sparse->cols() && scanned < 64) {
    ++scanned;
    if (params_.sparse->col_nnz(pf_col_) == 0) {
      ++pf_col_;
      progressed_ = true;
      continue;
    }
    const Addr base = params_.b_region.line_of(pf_col_, chunks_);
    bool issued_any = false;
    for (std::size_t chunk = 0; chunk < chunks_; ++chunk) {
      issued_any |= ms.dmb().prefetch(base + chunk * kLineBytes,
                                      params_.b_class, ms.now());
    }
    if (!issued_any && !ms.dram().can_accept_write(ms.now())) {
      break;  // channel saturated; try again next cycle
    }
    ++pf_ahead_;
    ++pf_col_;
    progressed_ = true;
  }

  // --- Stage transition ---
  if (ms.smq().finished() && pending_.empty() && !store_stalled_ &&
      ms.lsq().all_stores_drained()) {
    stage_ = params_.outputs_pinned ? Stage::kDone : Stage::kMergeSetup;
    progressed_ = true;
    // Merge/flush/writeback traffic is not attributable to a single
    // adjacency tile; it lands in the spatial residual bucket.
    HYMM_OBS(ms.observer(), spatial().unfocus());
  }

  // --- Resolve the cycle's cause ---
  if (attributed.has_value()) {
    cause_ = *attributed;
  } else if (!pending_.empty()) {
    // Freshly issued (or skipped) head: charge what it waits on.
    const Pending& head = pending_.front();
    cause_ = head.has_load
                 ? stall_cause_for(ms.lsq().load_wait_state(head.load_id))
                 : StallCause::kDmbMiss;  // pipeline fill bubble
  } else if (!ms.smq().finished()) {
    cause_ = ms.smq().has_ready() ? StallCause::kLsqFull
                                  : StallCause::kSmqBacklog;
  } else {
    cause_ = StallCause::kDrain;  // store/stage drain tail
  }
}

OpEngine::MergeRowSet::MergeRowSet(std::size_t capacity, NodeId rows)
    : capacity_(capacity),
      where_(rows),
      present_(rows, false),
      seen_(rows, false) {
  HYMM_CHECK(capacity_ > 0);
}

OpEngine::MergeRowSet::Result OpEngine::MergeRowSet::touch(NodeId row) {
  Result result;
  if (present_[row]) {
    lru_.move_to_back(where_[row]);
    result.access = Access::kHit;
    return result;
  }
  if (lru_.size() >= capacity_) {
    const NodeId victim = lru_.front_value();
    lru_.erase(lru_.front());
    present_[victim] = false;
    result.evicted = true;
    result.victim = victim;
  }
  result.access = seen_[row] ? Access::kRefetch : Access::kFreshMiss;
  seen_[row] = true;
  present_[row] = true;
  where_[row] = lru_.push_back(row);
  return result;
}

NodeId OpEngine::next_merge_line(const CscMatrix& sparse) {
  // Replays (row, chunk) pairs in the exact order records were
  // appended: traversal order, chunk-minor.
  while (merge_cursor_k_ >= sparse.col_nnz(merge_cursor_outer_)) {
    ++merge_cursor_outer_;
    merge_cursor_k_ = 0;
    HYMM_DCHECK(merge_cursor_outer_ < sparse.cols());
  }
  const NodeId row = sparse.col_rows(merge_cursor_outer_)[merge_cursor_k_];
  const auto line_id =
      static_cast<NodeId>(row * chunks_ + merge_cursor_chunk_);
  if (++merge_cursor_chunk_ == chunks_) {
    merge_cursor_chunk_ = 0;
    ++merge_cursor_k_;
  }
  return line_id;
}

void OpEngine::tick_merge(MemorySystem& ms) {
  // The whole stage is the paper's partial-output merge disruption;
  // cycles blocked on the record stream's first arrival or on channel
  // headroom are charged to the memory system, the rest to the merge.
  if (ms.now() < merge_ready_cycle_) {
    // Quiescent warm-up wait; next_event() exposes merge_ready_cycle_
    // so the fast path can jump straight to it.
    cause_ = StallCause::kDramLatency;
    return;
  }
  cause_ = StallCause::kMergeRmw;
  if (merged_records_ >= records_to_merge_) {
    stage_ = Stage::kFlush;
    progressed_ = true;
    return;
  }
  if (!ms.pe().can_issue(ms.now())) {
    // Time-flipping predicate: never quiescent while PE-blocked.
    progressed_ = true;
    return;
  }
  // Folding may evict a merged row (writeback) and may refetch an
  // earlier partial sum; both need channel headroom.
  if (!ms.dram().can_accept_write(ms.now())) {
    cause_ = StallCause::kDramBandwidth;
    return;
  }
  progressed_ = true;

  if (!params_.accumulate_in_buffer) {
    // Replay the traversal's row order: each record read-modifies the
    // output line it belongs to, rotating the buffer's working set.
    const NodeId line_id = next_merge_line(*params_.sparse);
    const MergeRowSet::Result access = merge_rows_->touch(line_id);
    if (access.evicted) {
      ms.dram().issue_write(
          params_.c_region.base + access.victim * kLineBytes,
          params_.c_final_class, ms.now());
    }
    if (access.access == MergeRowSet::Access::kRefetch) {
      ms.dram().issue_streaming_read(TrafficClass::kPartial, ms.now());
    }
  }

  // Stream the record itself (sequential readback of the spill heap).
  const std::uint64_t needed_bytes =
      (merged_records_ + 1) * merge_record_bytes_;
  while (merge_bytes_read_ < needed_bytes) {
    ms.dram().issue_streaming_read(TrafficClass::kPartial, ms.now());
    merge_bytes_read_ += kLineBytes;
  }
  ms.pe().merge_op(ms.now());
  HYMM_OBS(ms.observer(),
           observe_merge_depth(records_to_merge_ - merged_records_));
  ms.stats().note_partial_bytes(
      -static_cast<std::int64_t>(merge_record_bytes_));
  ++merged_records_;
  if (merged_records_ == records_to_merge_) stage_ = Stage::kFlush;
}

void OpEngine::tick_flush(MemorySystem& ms) {
  // Append mode: only the lines still resident in the merge working
  // set remain unwritten (evicted lines streamed out during kMerge).
  // Accumulate mode: DMB-resident partials first, then the rows whose
  // partials were merged from the spill heap.
  const std::uint64_t flush_target =
      !params_.accumulate_in_buffer && merge_rows_ != nullptr
          ? merge_rows_->resident()
          : static_cast<std::uint64_t>(rows_touched_) * chunks_;
  cause_ = StallCause::kDrain;
  if (flushed_lines_ >= flush_target) {
    stage_ = Stage::kDone;
    progressed_ = true;
    return;
  }
  if (!ms.dram().can_accept_write(ms.now())) {
    cause_ = StallCause::kDramBandwidth;
    return;
  }
  progressed_ = true;
  if (params_.accumulate_in_buffer) {
    if (!ms.dmb().writeback_one_partial(params_.c_final_class, ms.now())) {
      ms.dram().issue_write(
          params_.c_region.base + flushed_lines_ * kLineBytes,
          params_.c_final_class, ms.now());
    }
  } else {
    ms.dram().issue_write(
        params_.c_region.base + flushed_lines_ * kLineBytes,
        params_.c_final_class, ms.now());
  }
  ++flushed_lines_;
  if (flushed_lines_ == flush_target) stage_ = Stage::kDone;
}

}  // namespace hymm
