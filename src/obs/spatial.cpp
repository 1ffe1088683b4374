#include "obs/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace hymm {

const char* spatial_region_key(SpatialRegion region) {
  switch (region) {
    case SpatialRegion::kOp:
      return "op";
    case SpatialRegion::kRwp:
      return "rwp";
    case SpatialRegion::kRegion3:
      return "region3";
    case SpatialRegion::kOther:
      return "other";
  }
  return "other";
}

ImbalanceStats compute_imbalance(std::span<const std::uint64_t> values) {
  ImbalanceStats s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) {
    total += v;
    s.max_value = std::max(s.max_value, v);
  }
  if (total == 0) {
    return s;
  }
  const double n = static_cast<double>(values.size());
  s.mean = static_cast<double>(total) / n;
  s.max_over_mean = static_cast<double>(s.max_value) / s.mean;

  double var = 0.0;
  for (const std::uint64_t v : values) {
    const double d = static_cast<double>(v) - s.mean;
    var += d * d;
  }
  s.cov = std::sqrt(var / n) / s.mean;

  // Gini via the sorted-rank identity:
  //   G = (2 * sum_i i * x_(i)) / (n * sum x) - (n + 1) / n
  // with 1-based ranks over ascending x. 0 for uniform work, -> 1 as
  // all work concentrates on one unit.
  std::vector<std::uint64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    weighted += static_cast<double>(i + 1) * static_cast<double>(sorted[i]);
  }
  s.gini = 2.0 * weighted / (n * static_cast<double>(total)) - (n + 1.0) / n;
  if (s.gini < 0.0) {
    s.gini = 0.0;  // guard float round-off on uniform vectors
  }
  return s;
}

namespace {

std::uint64_t vector_sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

}  // namespace

NodeId spatial_tile_edge(NodeId nodes, NodeId tile_override) {
  NodeId tile = tile_override >= 2 ? tile_override : 0;
  if (tile == 0) {
    tile = static_cast<NodeId>(
        (nodes + SpatialTracker::kAutoGridSide - 1) /
        SpatialTracker::kAutoGridSide);
  }
  // Raise the tile edge until the grid fits kMaxGridSide per side —
  // bounds memory and report size on huge graphs and tiny overrides.
  const NodeId min_tile = static_cast<NodeId>(
      (nodes + SpatialTracker::kMaxGridSide - 1) /
      SpatialTracker::kMaxGridSide);
  return std::max<NodeId>({tile, min_tile, 1});
}

std::uint64_t SpatialData::grid_cycles() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.cycles);
  }
  return total;
}

std::uint64_t SpatialData::grid_dram_bytes() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.dram_bytes);
  }
  return total;
}

std::uint64_t SpatialData::grid_macs() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.macs);
  }
  return total;
}

std::uint64_t SpatialData::grid_nnz() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.nnz);
  }
  return total;
}

std::uint64_t SpatialData::grid_dmb_hits() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.dmb_hits);
  }
  return total;
}

std::uint64_t SpatialData::grid_dmb_misses() const {
  std::uint64_t total = 0;
  for (const SpatialTileCounters& r : regions) {
    total += vector_sum(r.dmb_misses);
  }
  return total;
}

std::vector<std::uint64_t> SpatialData::row_band_cycles() const {
  std::vector<std::uint64_t> bands(grid_rows, 0);
  for (const SpatialTileCounters& r : regions) {
    if (r.cycles.empty()) {
      continue;
    }
    for (std::size_t row = 0; row < grid_rows; ++row) {
      for (std::size_t col = 0; col < grid_cols; ++col) {
        bands[row] += r.cycles[row * grid_cols + col];
      }
    }
  }
  return bands;
}

std::uint64_t SpatialData::region_nnz(SpatialRegion region) const {
  return vector_sum(regions[static_cast<std::size_t>(region)].nnz);
}

void SpatialTracker::begin(NodeId nodes, std::size_t pe_count) {
  if (!enabled_ || nodes == 0) {
    return;
  }
  data_ = SpatialData{};
  data_.nodes = nodes;

  const NodeId tile = spatial_tile_edge(nodes, tile_override_);
  data_.tile = tile;
  data_.grid_rows = (nodes + tile - 1) / tile;
  data_.grid_cols = data_.grid_rows;

  data_.lane_busy_cycles.assign(pe_count, 0);
  data_.lane_mac_ops.assign(pe_count, 0);
  ops_by_width_.assign(pe_count + 1, 0);
  macs_by_width_.assign(pe_count + 1, 0);

  focused_ = false;
  active_ = true;
}

void SpatialTracker::reset() {
  data_ = SpatialData{};
  ops_by_width_.clear();
  macs_by_width_.clear();
  focused_ = false;
  active_ = false;
}

std::size_t SpatialTracker::cell_index(NodeId row, NodeId col) const {
  HYMM_DCHECK(row < data_.nodes && col < data_.nodes);
  return (row / data_.tile) * data_.grid_cols + (col / data_.tile);
}

SpatialTileCounters& SpatialTracker::region_cells(SpatialRegion region) {
  SpatialTileCounters& r = data_.regions[static_cast<std::size_t>(region)];
  if (r.empty()) {
    const std::size_t cells = data_.grid_rows * data_.grid_cols;
    r.nnz.assign(cells, 0);
    r.macs.assign(cells, 0);
    r.dmb_hits.assign(cells, 0);
    r.dmb_misses.assign(cells, 0);
    r.dram_bytes.assign(cells, 0);
    r.cycles.assign(cells, 0);
  }
  return r;
}

void SpatialTracker::on_mac(NodeId row, NodeId col, SpatialRegion region,
                            bool first_chunk) {
  if (!active_) {
    return;
  }
  focused_ = true;
  focus_region_ = static_cast<std::size_t>(region);
  focus_cell_ = cell_index(row, col);
  SpatialTileCounters& r = region_cells(region);
  ++r.macs[focus_cell_];
  if (first_chunk) {
    ++r.nnz[focus_cell_];
  }
}

void SpatialTracker::unfocus() { focused_ = false; }

void SpatialTracker::on_pe_op(std::size_t lanes, bool is_mac) {
  if (!active_) {
    return;
  }
  ++data_.array_busy_cycles;
  const std::size_t width = std::min(lanes, data_.lane_busy_cycles.size());
  ++ops_by_width_[width];
  if (is_mac) {
    ++macs_by_width_[width];
  }
}

void SpatialTracker::derive_lanes() {
  std::uint64_t busy = 0;
  std::uint64_t macs = 0;
  for (std::size_t lane = data_.lane_busy_cycles.size(); lane-- > 0;) {
    busy += ops_by_width_[lane + 1];
    macs += macs_by_width_[lane + 1];
    data_.lane_busy_cycles[lane] = busy;
    data_.lane_mac_ops[lane] = macs;
  }
}

void SpatialTracker::on_dram_bytes(std::uint64_t bytes) {
  if (!active_) {
    return;
  }
  if (focused_) {
    data_.regions[focus_region_].dram_bytes[focus_cell_] += bytes;
  } else {
    data_.residual_dram_bytes += bytes;
  }
}

void SpatialTracker::on_dmb_hit() {
  if (!active_) {
    return;
  }
  if (focused_) {
    ++data_.regions[focus_region_].dmb_hits[focus_cell_];
  } else {
    ++data_.residual_dmb_hits;
  }
}

void SpatialTracker::on_dmb_miss() {
  if (!active_) {
    return;
  }
  if (focused_) {
    ++data_.regions[focus_region_].dmb_misses[focus_cell_];
  } else {
    ++data_.residual_dmb_misses;
  }
}

void SpatialTracker::account_cycles(std::uint64_t n) {
  if (!active_) {
    return;
  }
  if (focused_) {
    data_.regions[focus_region_].cycles[focus_cell_] += n;
  } else {
    data_.residual_cycles += n;
  }
}

SpatialData SpatialTracker::take() {
  derive_lanes();
  SpatialData out = std::move(data_);
  reset();
  return out;
}

}  // namespace hymm
