#include "tune/router.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/fingerprint.hpp"
#include "graph/partition.hpp"
#include "obs/spatial.hpp"
#include "sweep/sweep.hpp"
#include "tune/cost_model.hpp"

namespace hymm {

namespace {

// RouteInfo/report mode string for a tiles mode.
std::string route_mode_label(RouteMode mode) {
  switch (mode) {
    case RouteMode::kGlobal: return "global";
    case RouteMode::kTilesAnalytic: return "analytic";
    case RouteMode::kTilesMeasured: return "measured";
  }
  return "?";
}

// Cache mode string ("route:analytic" / "route:measured") — prefixed
// so router verdicts share the tune-cache file with threshold
// decisions without key collisions.
std::string route_cache_mode(RouteMode mode) {
  return "route:" + route_mode_label(mode);
}

}  // namespace

RouteInfo to_route_info(const RouteDecision& decision) {
  RouteInfo info;
  info.enabled = decision.mode != RouteMode::kGlobal;
  if (!info.enabled) return info;
  info.mode = route_mode_label(decision.mode);
  info.degenerate = decision.degenerate;
  info.cache_hit = decision.cache_hit;
  info.simulations = decision.simulations;
  info.global_threshold = decision.global_threshold;
  info.predicted_global_cycles = decision.predicted_global_cycles;
  info.predicted_tiled_cycles = decision.predicted_tiled_cycles;
  info.graph_fingerprint = fingerprint_hex(decision.graph_fingerprint);
  info.config_hash = fingerprint_hex(decision.config_hash);
  HYMM_CHECK_MSG(decision.map != nullptr,
                 "tiles-mode RouteDecision without a map");
  const TileRoutingMap& map = *decision.map;
  info.nodes = map.nodes;
  info.tile = map.tile;
  info.grid_rows = map.grid_rows;
  info.grid_cols = map.grid_cols;
  info.op_rows = map.op_rows;
  info.region2_cols = map.region2_cols;
  info.tile_flows.reserve(map.flows.size());
  for (const TileFlow flow : map.flows) {
    info.tile_flows.push_back(static_cast<std::uint8_t>(flow));
  }
  info.tile_predicted_cycles = map.tile_predicted_cycles;
  info.tile_nnz = map.tile_nnz;
  return info;
}

TileRouter::TileRouter(std::string cache_path)
    : tuner_(std::move(cache_path)) {}

AcceleratorConfig TileRouter::apply(const AcceleratorConfig& config,
                                    const RouteDecision& decision) {
  AcceleratorConfig routed = config;
  if (decision.mode != RouteMode::kGlobal) {
    routed.tiling_threshold = decision.global_threshold;
  }
  return routed;
}

RouteDecision TileRouter::route(
    std::shared_ptr<const PreparedWorkload> workload,
    const AcceleratorConfig& config, RouteMode mode, unsigned threads) {
  HYMM_CHECK(workload != nullptr);
  RouteDecision decision;
  decision.mode = mode;
  decision.global_threshold = config.tiling_threshold;
  if (mode == RouteMode::kGlobal) return decision;

  decision.graph_fingerprint = workload_fingerprint(*workload);
  decision.config_hash = tuning_config_hash(config);

  // Step 1 — tune the global threshold analytically (shared cache,
  // mode "analytic"): the per-tile map refines the *tuned* split, so
  // the ablation's per-tile-vs-global-tuned comparison is apples to
  // apples.
  const TuneDecision tuned_threshold = tuner_.tune(
      workload, config, AutotuneMode::kAnalytic, threads);
  decision.global_threshold = tuned_threshold.threshold;
  const AcceleratorConfig tuned = Tuner::apply(config, tuned_threshold);

  // Step 2 — rebuild the candidate and degenerate maps. This is a
  // pure function of (workload, tuned config), so cache hits rebuild
  // the identical map with zero simulations.
  const CsrMatrix& sorted = workload->sort().sorted;
  const std::size_t dense_cols = workload->weights().cols();
  const std::size_t lines = dense_row_lines(dense_cols);
  const RegionPartition partition = partition_regions(sorted, tuned, lines);
  const NodeId tile = spatial_tile_edge(partition.nodes, 0);
  const TileStats stats =
      collect_tile_stats(sorted, tile, partition.region2_cols);

  TileRoutingMap degenerate = degenerate_routing_map(partition, stats.tile);
  degenerate.tile_nnz = stats.nnz;
  TileRoutingMap candidate =
      route_tiles_by_cost(stats, partition, tuned, dense_cols);
  const CostEstimate global_cost =
      estimate_routed_cost(stats, degenerate, tuned, dense_cols);
  const CostEstimate tiled_cost =
      estimate_routed_cost(stats, candidate, tuned, dense_cols);
  decision.predicted_global_cycles = global_cost.cycles;
  decision.predicted_tiled_cycles = tiled_cost.cycles;

  const std::string mode_name = route_cache_mode(mode);
  if (const auto hit = tuner_.cache().lookup(decision.graph_fingerprint,
                                             decision.config_hash,
                                             mode_name)) {
    decision.cache_hit = true;
    const bool use_tiles = hit->route_kind == "tiles";
    decision.degenerate = !use_tiles;
    decision.map = std::make_shared<TileRoutingMap>(
        use_tiles ? std::move(candidate) : std::move(degenerate));
    return decision;
  }

  // Step 3 — decide. The global split is the baseline; the per-tile
  // map must be strictly better under the mode's metric to displace
  // it (ties keep the paper partition).
  bool use_tiles = false;
  double decided_cycles = global_cost.cycles;
  if (!candidate.degenerate) {
    if (mode == RouteMode::kTilesAnalytic) {
      use_tiles = tiled_cost.cycles < global_cost.cycles;
      decided_cycles = use_tiles ? tiled_cost.cycles : global_cost.cycles;
    } else {
      // Measured: race the candidate map against the plain global
      // split through the simulator (two hybrid cells, same tuned
      // config, so the sweep shares their combination phase).
      SweepSpec spec;
      spec.workloads = {workload};
      spec.flows = {Dataflow::kHybrid};
      spec.configs = {tuned, tuned};
      spec.routes = {nullptr, std::make_shared<TileRoutingMap>(candidate)};
      SweepOptions options;
      options.threads = threads;
      SweepRunner runner(options);
      const SweepRun run = runner.run(spec);
      HYMM_CHECK(run.cells.size() == 2);
      double global_cycles = 0.0;
      double tiled_cycles = 0.0;
      for (const SweepCellResult& cell : run.cells) {
        const double cycles = static_cast<double>(cell.result.cycles);
        if (cell.cell.config_index == 0) {
          global_cycles = cycles;
        } else {
          tiled_cycles = cycles;
        }
      }
      decision.simulations = run.cells.size();
      measured_simulations_.fetch_add(run.cells.size());
      use_tiles = tiled_cycles < global_cycles;
      decided_cycles = use_tiles ? tiled_cycles : global_cycles;
    }
  }
  decision.degenerate = !use_tiles;

  TuneCacheEntry entry;
  entry.graph_fingerprint = decision.graph_fingerprint;
  entry.config_hash = decision.config_hash;
  entry.mode = mode_name;
  entry.threshold = decision.global_threshold;
  entry.cycles = decided_cycles;
  entry.dataset = workload->workload().spec.abbrev;
  entry.route_kind = use_tiles ? "tiles" : "global";
  entry.tile = stats.tile;
  tuner_.cache().insert(entry);

  decision.map = std::make_shared<TileRoutingMap>(
      use_tiles ? std::move(candidate) : std::move(degenerate));
  return decision;
}

}  // namespace hymm
