/// @file
/// The per-tile dataflow router: the policy layer above the
/// core/routing.hpp mechanism, mirroring the threshold auto-tuner's
/// shape (tune/tuner.hpp). For a concrete workload it decides which
/// TileRoutingMap the hybrid engine should run, in one of two modes:
///
///   - RouteMode::kTilesAnalytic — tune the global threshold
///     analytically, score every tile with the roofline cost model
///     (tune/cost_model.hpp) and keep the per-tile map only when its
///     routed roofline beats the degenerate map's. No simulation.
///   - RouteMode::kTilesMeasured — same candidate map, but the
///     decision races it against the global split through the real
///     simulator (two hybrid sweep cells) and keeps it only on a
///     strictly smaller cycle count.
///
/// Both modes share the tuner's selection discipline: the global
/// split is the baseline and is only displaced by a *strictly* better
/// per-tile map, so a routed run can never be worse than
/// --route=global under the mode's own metric. When the global split
/// wins, the decision still carries the *degenerate* map — drivers
/// pass it to the engine, which reproduces the un-routed partition
/// bit-identically (tests/test_routing.cpp) while keeping the routed
/// code path exercised.
///
/// Decisions persist in the same TuneCache file as threshold
/// decisions (schema hymm-tune-cache/2) under the mode strings
/// "route:analytic" / "route:measured"; a repeat run rebuilds the map
/// deterministically from the cached verdict with zero simulations.
/// See docs/routing.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "core/routing.hpp"
#include "core/runner.hpp"
#include "sweep/workload_cache.hpp"
#include "tune/tuner.hpp"

namespace hymm {

/// The router's verdict for one (workload, config, mode) question.
struct RouteDecision {
  RouteMode mode = RouteMode::kGlobal;  ///< mode the decision ran in
  /// True when the router fell back to the degenerate map (the global
  /// split won the comparison).
  bool degenerate = true;
  bool cache_hit = false;  ///< verdict served from the tune cache
  std::uint64_t simulations = 0;  ///< simulator runs this call paid for
  /// Tiling threshold the map was built on (the analytic tuner's
  /// choice for this workload, not necessarily the config's fixed
  /// default).
  double global_threshold = 0.0;
  double predicted_global_cycles = 0.0;  ///< routed roofline, degenerate map
  double predicted_tiled_cycles = 0.0;   ///< routed roofline, candidate map
  std::uint64_t graph_fingerprint = 0;  ///< workload_fingerprint() digest
  std::uint64_t config_hash = 0;        ///< tuning_config_hash() digest
  /// The map to run. Null only for RouteMode::kGlobal; for the tiles
  /// modes it is always set (the degenerate map when the global split
  /// won) and drivers forward it to ExperimentRequest::route /
  /// SweepSpec::routes.
  std::shared_ptr<const TileRoutingMap> map;
};

/// Converts a decision into the RouteInfo annotation drivers attach
/// to hybrid ExperimentResults for the run report ("route" object of
/// hymm-run-report/8). kGlobal maps to enabled=false. Never attach
/// route info to sampled results — the sampled path ignores routing.
RouteInfo to_route_info(const RouteDecision& decision);

/// Stateful router bound to one tune-cache file (or memory-only when
/// the path is empty) — safe to share with a Tuner pointing at the
/// same path, since router entries live under their own mode strings.
/// Thread-safe like the Tuner: the cache is internally locked and
/// measured races use their own SweepRunner.
class TileRouter {
 public:
  /// `cache_path` — the `hymm-tune-cache/2` file to load and persist
  /// decisions in; empty keeps decisions in memory only.
  explicit TileRouter(std::string cache_path = {});

  /// Answers "which routing map should this workload run with?".
  /// The global threshold is tuned analytically first (through the
  /// shared cache, mode "analytic"), the map is built at that
  /// threshold on the spatial-heatmap tile grid, and the mode's
  /// comparison decides whether it survives. `threads` only matters
  /// for measured misses (the two-cell race), exactly like
  /// Tuner::tune. kGlobal returns the baseline decision (null map)
  /// without touching the cache.
  RouteDecision route(std::shared_ptr<const PreparedWorkload> workload,
                      const AcceleratorConfig& config, RouteMode mode,
                      unsigned threads = 1);

  /// `config` with the decision's global threshold applied — what the
  /// routed cells should actually run (the map's op_rows were derived
  /// from this threshold, and partition_regions must agree).
  static AcceleratorConfig apply(const AcceleratorConfig& config,
                                 const RouteDecision& decision);

  /// Total race simulations this router has paid for (cache hits and
  /// analytic decisions add zero) — the test hook for "second run
  /// skips simulation".
  std::uint64_t measured_simulations() const {
    return measured_simulations_.load();
  }

  TuneCache& cache() { return tuner_.cache(); }  ///< shared decision cache

 private:
  Tuner tuner_;
  std::atomic<std::uint64_t> measured_simulations_{0};
};

}  // namespace hymm
