/// @file
/// Row-wise product engine (Fig 1a; represents GROW, and runs HyMM's
/// regions 2/3 and the combination phase of RWP-family architectures).
///
/// Per cycle: the SMQ supplies one (row, col, value) scalar; the LSQ
/// fetches the matching dense row B[col]; the PE array retires one
/// scalar x vector MAC into the output-stationary row accumulator
/// (modeled directly on the host output row); a row's last non-zero
/// triggers the output-row store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/ring_queue.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "linalg/dense.hpp"

namespace hymm {

/// Inputs of one RwpEngine run. Dense rows wider than 16 floats span
/// multiple 64-byte lines; each non-zero then expands into one work
/// item per line chunk.
struct RwpEngineParams {
  const CsrMatrix* sparse = nullptr;  ///< A (aggregation) or X (combination)
  /// Traffic class the sparse operand's stream is accounted under.
  TrafficClass sparse_class = TrafficClass::kAdjacency;

  const DenseMatrix* b = nullptr;  ///< XW (aggregation) or W (combination)
  AddressRegion b_region;          ///< address range backing `b`
  /// Traffic class dense-row fetches are accounted under.
  TrafficClass b_class = TrafficClass::kCombined;

  DenseMatrix* c = nullptr;  ///< output, sized sparse->rows() x b->cols()
  AddressRegion c_region;    ///< address range backing `c`
  /// Traffic class output stores are accounted under.
  TrafficClass c_class = TrafficClass::kOutput;
  /// Output store policy (write-through by default).
  StoreKind c_store_kind = StoreKind::kThrough;

  /// Rebase for tiled inputs: local sparse row r writes global output
  /// row r + row_offset (HyMM region 2/3 runs rows [R1, n)).
  NodeId row_offset = 0;

  /// Column boundary for HyMM's region-2/3 attribution: retired MACs
  /// whose source column lies below the boundary count as region 2
  /// (hot columns), the rest as region 3. 0 (default) attributes
  /// everything to region 3.
  NodeId region2_col_boundary = 0;

  /// Maximum in-flight non-zeros (bounded further by LSQ capacity).
  std::size_t window = 64;

  /// Spatial attribution (obs/spatial.hpp): when the sparse operand is
  /// the adjacency matrix, retired MACs focus the observer's tile grid
  /// — columns below region2_col_boundary under `spatial_region2`, the
  /// rest under `spatial_region3` (pure RWP aggregations pass kRwp for
  /// both). Off for the combination phase.
  bool spatial_in_grid = false;
  /// Region label for MACs below region2_col_boundary.
  SpatialRegion spatial_region2 = SpatialRegion::kRwp;
  /// Region label for MACs at or past region2_col_boundary.
  SpatialRegion spatial_region3 = SpatialRegion::kRwp;
};

/// The row-wise-product dataflow engine.
class RwpEngine final : public Engine {
 public:
  /// The memory system is needed at construction to attach the SMQ
  /// stream. Parameter pointers must outlive the engine.
  RwpEngine(MemorySystem& ms, const RwpEngineParams& params);

  bool done(const MemorySystem& ms) const override;
  void tick(MemorySystem& ms) override;
  StallCause cycle_cause() const override { return cause_; }
  bool quiescent() const override { return !progressed_; }

  /// Exact MAC count below region2_col_boundary (per-region
  /// attribution of the hybrid's shared RWP phase).
  std::uint64_t region2_macs() const { return region2_macs_; }
  /// Exact MAC count at or past region2_col_boundary.
  std::uint64_t region3_macs() const { return region3_macs_; }

 private:
  struct Pending {
    NodeId row = 0;    // local sparse row
    NodeId col = 0;    // dense row index into B
    Value value = 0.0f;
    std::size_t chunk = 0;  // which 16-lane slice of the row
    bool last_of_row = false;
    LoadStoreQueue::EntryId load_id = 0;
  };

  void try_issue(MemorySystem& ms);
  void try_retire(MemorySystem& ms);
  void resolve_cause(const MemorySystem& ms);

  std::span<const Value> b_lanes(NodeId row, std::size_t chunk) const;
  std::span<Value> c_lanes(NodeId row, std::size_t chunk) const;

  RwpEngineParams params_;
  std::size_t chunks_ = 1;  // 64-byte lines per dense row
  RingQueue<Pending> pending_;
  // Output-line stores the LSQ rejected; retried before any further
  // retirement.
  RingQueue<Addr> pending_stores_;
  std::uint64_t retired_ = 0;
  std::uint64_t region2_macs_ = 0;
  std::uint64_t region3_macs_ = 0;

  // Cycle accounting: set by the retire path when it decides the
  // cycle's fate, resolved from queue state otherwise.
  std::optional<StallCause> attributed_;
  StallCause cause_ = StallCause::kDrain;
  // Fast-forward quiescence: set whenever a tick mutates engine or
  // memory-system state, or blocks on a time-flipping predicate
  // (PeArray::can_issue) and must therefore re-run next cycle.
  bool progressed_ = false;
};

}  // namespace hymm
