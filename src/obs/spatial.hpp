/// @file
/// Spatial attribution layer: answers
/// *where* cycles, DRAM bytes and DMB traffic go — per PE lane and per
/// adjacency-matrix tile — where the stall profiler (common/stall.hpp)
/// and the time-series sampler (obs/timeseries.hpp) only answer *when*
/// and *why*.
///
/// Model: the engines mark the adjacency coordinate of every retired
/// MAC as the tracker's *focus* (row-block x col-block tile plus the
/// hybrid region the nonzero belongs to). Every subsequent cycle, DRAM
/// line transfer and DMB hit/miss is attributed to the focused tile
/// until the next MAC moves the focus or the engine clears it (merge /
/// flush / drain work and the whole combination phase land in the
/// `residual` bucket instead, so the grid plus the residual always sum
/// to the run totals — DCHECKed in run_experiment). PE lanes are
/// modeled positionally: an op engaging L lanes busies lanes [0, L).
///
/// Determinism: focus only changes at engine retire events, which the
/// fast-forward contract never skips, so a quiescent span has constant
/// focus and `fast_forward_to` can bulk-attribute the whole span —
/// spatial counters are bit-identical under HYMM_NO_FASTFWD and at any
/// sweep thread count (one tracker per Observer, groups serialized).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hymm {

/// Which engine pass touched a tile. Mirrors the hybrid partition
/// (docs/tuning.md): region 1 rows run OP, region 2 columns RWP with
/// resident features, region 3 the RWP remainder. Pure OP / pure RWP
/// aggregations attribute everything to kOp / kRwp; kOther holds
/// grid-resident work that is not a MAC stream (unused as a focus —
/// it is the serialization key for the residual bucket).
enum class SpatialRegion : std::uint8_t {
  kOp = 0,       ///< region-1 outer-product pass
  kRwp = 1,      ///< region-2 (hot columns) row-wise pass
  kRegion3 = 2,  ///< region-3 (remainder) row-wise pass
  kOther = 3,    ///< residual serialization key; never a focus
};

/// Number of SpatialRegion values.
inline constexpr std::size_t kSpatialRegionCount = 4;

/// Stable JSON/report key for a region ("op", "rwp", "region3",
/// "other").
const char* spatial_region_key(SpatialRegion region);

/// Per-tile counters for one region, row-major over the grid. Vectors
/// are either empty (region never touched) or grid_rows * grid_cols
/// long.
struct SpatialTileCounters {
  std::vector<std::uint64_t> nnz;         ///< adjacency nonzeros retired (first chunk)
  std::vector<std::uint64_t> macs;        ///< MAC ops retired (all feature chunks)
  std::vector<std::uint64_t> dmb_hits;    ///< DMB read+accumulate hits while focused
  std::vector<std::uint64_t> dmb_misses;  ///< DMB read+accumulate misses while focused
  std::vector<std::uint64_t> dram_bytes;  ///< DRAM line bytes (reads+writes) while focused
  std::vector<std::uint64_t> cycles;      ///< cycles attributed while focused

  bool empty() const { return macs.empty(); }  ///< region never touched
  bool operator==(const SpatialTileCounters&) const = default;  ///< memberwise
};

/// Load-imbalance analytics over one vector of per-unit work (per-PE
/// busy cycles, per-tile-row-band cycles, per-shard anything).
struct ImbalanceStats {
  std::size_t count = 0;          ///< number of units
  double mean = 0.0;              ///< mean work per unit
  std::uint64_t max_value = 0;    ///< heaviest unit
  double max_over_mean = 0.0;     ///< max / mean; 1.0 is perfectly balanced
  double cov = 0.0;               ///< coefficient of variation (stddev / mean)
  double gini = 0.0;              ///< Gini coefficient in [0, 1)

  bool operator==(const ImbalanceStats&) const = default;  ///< memberwise
};

/// max/mean, CoV and Gini of `values`. All ratios are 0 when the
/// vector is empty or sums to zero (no work means no imbalance).
ImbalanceStats compute_imbalance(std::span<const std::uint64_t> values);

/// Tile edge (in nodes) the spatial grid uses for an `nodes` x `nodes`
/// adjacency: the explicit override when >= 2, else ~nodes/32
/// (SpatialTracker::kAutoGridSide), always raised until the grid fits
/// kMaxGridSide per side.
NodeId spatial_tile_edge(NodeId nodes, NodeId tile_override);

/// One run's spatial attribution, handed from the Observer's tracker
/// to ExperimentResult::spatial and serialized as the "spatial" object
/// of hymm-run-report/9 (docs/schemas.md).
struct SpatialData {
  NodeId nodes = 0;          ///< adjacency dimension the grid covers
  NodeId tile = 0;           ///< tile edge in nodes (rows == cols)
  std::size_t grid_rows = 0; ///< ceil(nodes / tile)
  std::size_t grid_cols = 0; ///< ceil(nodes / tile)

  /// Per-region tile grids, indexed by SpatialRegion. A region whose
  /// counters were never touched stays empty.
  std::array<SpatialTileCounters, kSpatialRegionCount> regions;

  /// Work that happened while no tile was focused: the combination
  /// phase, OP merge/flush streams, output writeback and end-of-phase
  /// drains. Keeping it explicit makes the conservation invariants
  /// exact: grid + residual == run totals.
  std::uint64_t residual_cycles = 0;
  std::uint64_t residual_dram_bytes = 0;   ///< unfocused DRAM bytes
  std::uint64_t residual_dmb_hits = 0;     ///< unfocused DMB hits
  std::uint64_t residual_dmb_misses = 0;   ///< unfocused DMB misses

  /// Per-PE-lane busy cycles (an op engaging L lanes busies [0, L)).
  std::vector<std::uint64_t> lane_busy_cycles;
  /// Per-PE-lane MAC op counts (merge adds busy a lane without a MAC).
  std::vector<std::uint64_t> lane_mac_ops;
  /// Array-level busy cycles (one per retired op); must equal
  /// SimStats::alu_busy_cycles — DCHECKed in run_experiment.
  std::uint64_t array_busy_cycles = 0;

  bool empty() const { return nodes == 0; }  ///< no grid was sized
  bool operator==(const SpatialData&) const = default;  ///< memberwise

  // Grid-wide sums across regions (conservation-invariant side).
  std::uint64_t grid_cycles() const;      ///< sum of tile cycles
  std::uint64_t grid_dram_bytes() const;  ///< sum of tile DRAM bytes
  std::uint64_t grid_macs() const;        ///< sum of tile MACs
  std::uint64_t grid_nnz() const;         ///< sum of tile nonzeros
  std::uint64_t grid_dmb_hits() const;    ///< sum of tile DMB hits
  std::uint64_t grid_dmb_misses() const;  ///< sum of tile DMB misses

  /// grid + residual == run cycles (conservation invariant).
  std::uint64_t total_cycles() const { return grid_cycles() + residual_cycles; }
  /// grid + residual == run DRAM bytes (conservation invariant).
  std::uint64_t total_dram_bytes() const {
    return grid_dram_bytes() + residual_dram_bytes;
  }

  /// Cycles summed per tile row band (across regions and columns);
  /// the per-row-band axis of the imbalance analytics.
  std::vector<std::uint64_t> row_band_cycles() const;

  /// Nonzeros summed per region (partition cross-check in tests).
  std::uint64_t region_nnz(SpatialRegion region) const;
};

/// Observer-owned spatial accumulator. Lifecycle mirrors TimeSeries:
/// constructed from ObserverOptions, reset by Observer::begin_run,
/// configured per layer by Accelerator::run_layer (Observer::begin_layer) and
/// drained into the ExperimentResult by run_experiment (take).
class SpatialTracker {
 public:
  SpatialTracker() = default;  ///< disabled tracker
  /// Tracker honoring the --spatial knob and tile override.
  SpatialTracker(bool enabled, NodeId tile_override)
      : enabled_(enabled), tile_override_(tile_override) {}

  bool enabled() const { return enabled_; }  ///< collection requested
  /// True once begin() sized a grid for the current run.
  bool active() const { return active_; }

  /// Sizes the grid for one layer run of an `nodes` x `nodes`
  /// adjacency on a `pe_count`-lane array and clears all counters.
  /// Tile edge: the explicit override when >= 2, else ~nodes/32
  /// (clamped so the grid never exceeds kMaxGridSide per side).
  void begin(NodeId nodes, std::size_t pe_count);
  /// Drops all state; the tracker waits for the next begin().
  void reset();

  // --- Attribution hooks (all no-ops until begin()) ---

  /// A MAC retired for adjacency nonzero (row, col) in `region`:
  /// counts it and moves the focus to its tile. `first_chunk` marks
  /// the first feature chunk (== one adjacency nonzero).
  void on_mac(NodeId row, NodeId col, SpatialRegion region, bool first_chunk);
  /// Clears the focus: subsequent cycles/bytes land in the residual.
  void unfocus();

  /// One retired PE-array op engaging `lanes` lanes ([0, lanes)).
  /// Counted per lane width; the per-lane vectors are derived when
  /// read (data(), take()).
  void on_pe_op(std::size_t lanes, bool is_mac);

  void on_dram_bytes(std::uint64_t bytes);  ///< DRAM traffic while focused
  void on_dmb_hit();    ///< DMB hit while focused
  void on_dmb_miss();   ///< DMB miss while focused

  /// Attributes `n` cycles to the focused tile (or the residual).
  /// Called once per simulated cycle by run_phase and once per span by
  /// fast_forward_to — the focus is constant across a quiescent span,
  /// so the bulk charge is exact.
  void account_cycles(std::uint64_t n);

  /// Live counters, with the per-lane vectors brought up to date.
  const SpatialData& data() {
    derive_lanes();
    return data_;
  }
  /// Hands the finished data over and deactivates until begin().
  SpatialData take();

  /// Grid clamp: tile is raised until ceil(nodes/tile) fits.
  static constexpr std::size_t kMaxGridSide = 128;
  /// Auto mode targets this many tiles per side.
  static constexpr std::size_t kAutoGridSide = 32;

 private:
  std::size_t cell_index(NodeId row, NodeId col) const;
  SpatialTileCounters& region_cells(SpatialRegion region);
  // Fills data_.lane_busy_cycles and lane_mac_ops from the per-width
  // op counts: lane i was busied by every op wider than i.
  void derive_lanes();

  bool enabled_ = false;
  NodeId tile_override_ = 0;
  bool active_ = false;
  SpatialData data_;
  // Retired ops (and MACs) by engaged lane count, clamped to the lane
  // count: index w counts ops on lanes [0, w).
  std::vector<std::uint64_t> ops_by_width_;
  std::vector<std::uint64_t> macs_by_width_;

  bool focused_ = false;
  std::size_t focus_region_ = 0;
  std::size_t focus_cell_ = 0;
};

}  // namespace hymm
