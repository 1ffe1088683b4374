/// @file
/// Outer-product engine (Fig 1b; represents GCNAX, and runs HyMM's
/// region 1).
///
/// Streaming stage: for each column j of the sparse matrix the dense
/// row B[j] is loaded once and held input-stationary in the PEs; every
/// non-zero (i, j) retires one MAC and emits a partial-output line for
/// row i. With the near-memory accumulator the partial folds into the
/// DMB in place (missing lines are allocated and may spill); without
/// it, every partial is appended as a 68-byte record to a spill heap.
///
/// Merge stage (skipped when the outputs are pinned, i.e. HyMM region
/// 1): spilled records stream back and the PE adders fold them into
/// the output rows — a random read-modify-write per record whose
/// working set rotates through the buffer. This is the "merging
/// partial outputs" disruption of Section V-B: the PEs wait on the
/// record stream, on refetches of previously-merged rows and on
/// eviction writebacks.
///
/// Flush stage: every touched output row is written once as the final
/// result.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/lru_list.hpp"
#include "common/ring_queue.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "linalg/dense.hpp"

namespace hymm {

/// Inputs of one OpEngine run.
struct OpEngineParams {
  const CscMatrix* sparse = nullptr;  ///< sparse operand, column order
  /// Traffic class the sparse operand's stream is accounted under.
  TrafficClass sparse_class = TrafficClass::kAdjacency;

  const DenseMatrix* b = nullptr;  ///< indexed by sparse column id
  AddressRegion b_region;          ///< address range backing `b`
  /// Traffic class dense-row fetches are accounted under.
  TrafficClass b_class = TrafficClass::kCombined;

  DenseMatrix* c = nullptr;  ///< output matrix
  AddressRegion c_region;    ///< address range backing `c`
  /// Class of the final (merged) output writes: kOutput for
  /// aggregation, kCombined when OP runs the combination phase.
  TrafficClass c_final_class = TrafficClass::kOutput;

  /// Spill heap for partial records (append mode and readbacks).
  AddressRegion spill_region;

  /// Near-memory accumulator (Section IV-D). Off reproduces the
  /// "w/o accumulator" series of Fig 10.
  bool accumulate_in_buffer = true;

  /// HyMM region-1 mode: the caller pre-pinned all output lines, so
  /// partials always merge in place and the caller writes the outputs
  /// back on unpin; merge and flush stages are skipped.
  bool outputs_pinned = false;

  std::size_t window = 64;  ///< maximum in-flight non-zeros

  /// Spatial attribution (obs/spatial.hpp): when the sparse operand is
  /// the adjacency matrix itself, retired MACs focus the observer's
  /// tile grid under `spatial_region`. Off (the default) for the
  /// combination phase, whose coordinates live in feature space.
  bool spatial_in_grid = false;
  /// Region label retired MACs are attributed to on the tile grid.
  SpatialRegion spatial_region = SpatialRegion::kOp;
};

/// The outer-product dataflow engine.
class OpEngine final : public Engine {
 public:
  /// The memory system is needed at construction to attach the SMQ
  /// stream. Parameter pointers must outlive the engine.
  OpEngine(MemorySystem& ms, const OpEngineParams& params);

  bool done(const MemorySystem& ms) const override;
  void tick(MemorySystem& ms) override;
  StallCause cycle_cause() const override { return cause_; }
  bool quiescent() const override { return !progressed_; }
  /// The merge stage's record-stream warm-up is the one engine-owned
  /// timer: nothing happens until merge_ready_cycle_.
  Cycle next_event(Cycle now) const override {
    return stage_ == Stage::kMerge && now < merge_ready_cycle_
               ? merge_ready_cycle_
               : kNoEvent;
  }

  /// Spill records folded by the merge stage (tests, stats reports).
  std::uint64_t spill_records_merged() const { return merged_records_; }
  /// Output rows with at least one non-zero (tests, stats reports).
  NodeId rows_touched() const { return rows_touched_; }

 private:
  enum class Stage { kStream, kMergeSetup, kMerge, kFlush, kDone };

  // Working-set model of the merge stage: which output rows currently
  // sit in the on-chip buffer while records are folded. LRU over row
  // ids with the DMB's line capacity.
  class MergeRowSet {
   public:
    explicit MergeRowSet(std::size_t capacity, NodeId rows);

    enum class Access {
      kHit,        // row resident: fold is free
      kFreshMiss,  // first touch: allocate, no refetch needed
      kRefetch,    // row rotated out earlier: its partial sum must be
                   // re-read from DRAM
    };

    struct Result {
      Access access = Access::kHit;
      bool evicted = false;   // a victim row was written back
      NodeId victim = 0;      // valid when evicted
    };

    Result touch(NodeId row);
    std::size_t resident() const { return lru_.size(); }

   private:
    std::size_t capacity_;
    LruList<NodeId> lru_;  // front = oldest
    std::vector<LruList<NodeId>::Handle> where_;
    std::vector<bool> present_;
    std::vector<bool> seen_;
  };

  struct Pending {
    NodeId col = 0;  // sparse column (selects the stationary B row)
    NodeId row = 0;  // local output row
    Value value = 0.0f;
    std::size_t chunk = 0;   // which 16-lane slice of the dense row
    bool has_load = false;   // first entry of a column loads B[col]
    LoadStoreQueue::EntryId load_id = 0;
  };

  void tick_stream(MemorySystem& ms);
  void tick_merge(MemorySystem& ms);
  void tick_flush(MemorySystem& ms);

  std::span<const Value> b_lanes(NodeId row, std::size_t chunk) const;
  std::span<Value> c_lanes(NodeId row, std::size_t chunk) const;

  // Next output-line id in traversal order (append-mode merge replay).
  NodeId next_merge_line(const CscMatrix& sparse);

  // Records one partial-output emission in append (no-accumulator)
  // mode: 68 bytes to the spill heap.
  void append_partial_record(MemorySystem& ms);

  OpEngineParams params_;
  std::size_t chunks_ = 1;  // 64-byte lines per dense row
  Stage stage_ = Stage::kStream;
  // Cycle accounting: what this tick was spent on (set every tick).
  StallCause cause_ = StallCause::kDrain;
  RingQueue<Pending> pending_;
  // Issue-slot staging buffer, reused across cycles to avoid a heap
  // allocation per issued non-zero.
  std::vector<Pending> staged_;
  bool store_stalled_ = false;
  Addr stalled_store_line_ = 0;
  // Fast-forward quiescence: set whenever a tick mutates engine or
  // memory-system state, or blocks on a time-flipping predicate
  // (PeArray::can_issue) and must therefore re-run next cycle.
  bool progressed_ = false;

  NodeId rows_touched_ = 0;  // rows of c with at least one non-zero

  // Append-mode spill bookkeeping.
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;

  // Merge-stage bookkeeping.
  std::uint64_t records_to_merge_ = 0;
  std::uint64_t merged_records_ = 0;
  std::uint64_t merge_bytes_read_ = 0;
  std::size_t merge_record_bytes_ = kLineBytes;
  Cycle merge_ready_cycle_ = 0;
  std::uint64_t spills_before_ = 0;
  // Append-mode merge replays the traversal's (row, chunk) sequence.
  NodeId merge_cursor_outer_ = 0;
  EdgeCount merge_cursor_k_ = 0;
  std::size_t merge_cursor_chunk_ = 0;
  std::unique_ptr<MergeRowSet> merge_rows_;

  // Pointer-guided prefetcher over upcoming stationary columns (the
  // SMQ pointer buffer exposes future column ids ahead of the index
  // stream, so the OP input stream behaves sequentially).
  NodeId pf_col_ = 0;      // next column to prefetch
  std::size_t pf_ahead_ = 0;  // prefetched, not yet consumed

  // Flush-stage bookkeeping (output lines, not rows).
  std::uint64_t flushed_lines_ = 0;
};

}  // namespace hymm
