/// @file
/// Parallel sweep executor: runs independent (dataset, scale,
/// dataflow, config, seed) simulation cells concurrently and
/// deterministically. A SweepSpec describes the grid, SweepRunner
/// schedules cells onto worker threads (HYMM_THREADS; 1 = the serial
/// path), and results come back in stable grid order with per-cell
/// cycles and counters bit-identical to a serial run regardless of
/// thread count — each cell simulates on private state, sharing only
/// the immutable PreparedWorkload from the WorkloadCache.
///
/// Reuse: a run without observers plans its grid before executing it
/// and never simulates the same work twice. A cell whose key
/// (workload, flow, tuning_config_hash, plus the tiling threshold for
/// hybrid cells) repeats an earlier cell's is not
/// simulated: it gets a copy of that cell's result and records it in
/// SweepCellResult::reused_from. Among the remaining cells, those
/// sharing a combination phase (workload, flow, tuning_config_hash)
/// simulate it once: the first in grid order (the leader) publishes
/// a copy of its phase-boundary MemorySystem (WarmState,
/// core/accelerator.hpp) and the others restore it, bit-identically.
/// The plan depends only on the grid, so which cell builds and which
/// restores does not depend on the thread count. The snapshots live
/// only for one run().
///
/// Observability: observers are never shared across threads. Cells
/// mapping to the same group key share one Observer and run serially
/// in grid order on one worker (e.g. one trace file per dataset); by
/// default every cell is its own group, giving full parallelism.
/// Observed cells always simulate cold, because a restored phase
/// would drop its trace events and counter samples.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/runner.hpp"
#include "obs/observer.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {

/// One point of the grid. `index` is the cell's position in stable
/// grid order (dataset-major, then config, then flow).
struct SweepCell {
  std::size_t index = 0;             ///< position in stable grid order
  DatasetSpec spec;                  ///< pre-scaling registry spec
  double scale = 1.0;                ///< effective scale
  std::uint64_t seed = 42;           ///< workload seed
  std::size_t config_index = 0;      ///< position in SweepSpec::configs
  AcceleratorConfig config;          ///< hardware parameters for this cell
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow for this cell
  /// Pre-built workload (set when the spec came from
  /// SweepSpec::workloads); null cells build through the cache.
  std::shared_ptr<const PreparedWorkload> prepared;
};

/// The grid: datasets x configs x flows at one (scale, seed). The
/// workload axis is either registry specs (built and cached on
/// demand) or pre-built workloads (e.g. loaded from an edge list);
/// when both are given the prepared workloads follow the specs.
struct SweepSpec {
  std::vector<DatasetSpec> datasets;  ///< registry workload axis
  std::vector<std::shared_ptr<const PreparedWorkload>> workloads;  ///< pre-built workload axis
  std::vector<AcceleratorConfig> configs = {AcceleratorConfig{}};  ///< config axis
  /// Dataflow axis; defaults to all three.
  std::vector<Dataflow> flows = {Dataflow::kOuterProduct,
                                 Dataflow::kRowWiseProduct,
                                 Dataflow::kHybrid};
  /// Scale applied to every dataset; nullopt selects each dataset's
  /// default_scale. Ignored for pre-built workloads.
  std::optional<double> scale;
  std::uint64_t seed = 42;  ///< workload seed for every cell

  /// Expands the grid in stable order (dataset-major, config, flow).
  std::vector<SweepCell> cells() const;
};

/// One cell plus its simulation outcome.
struct SweepCellResult {
  SweepCell cell;           ///< the grid point that produced this
  DatasetSpec scaled_spec;  ///< post-scaling spec (workload.spec)
  ExperimentResult result;  ///< the simulated metrics
  /// Set when this cell repeated an earlier cell's key and was not
  /// simulated: the index of the cell whose result `result` copies
  /// (its sim_wall_ms is 0).
  std::optional<std::size_t> reused_from;
};

/// Cells that shared one Observer (ran serially on one worker), in
/// grid order of their first cell. `observer` is null unless
/// SweepOptions::observe was set.
struct SweepGroup {
  std::string key;                 ///< the group_key the cells mapped to
  std::vector<std::size_t> cells;  ///< indices into SweepRun::cells
  std::shared_ptr<Observer> observer;  ///< shared instrument; may be null
};

/// Everything a sweep produced.
struct SweepRun {
  std::vector<SweepCellResult> cells;  ///< stable grid order
  std::vector<SweepGroup> groups;      ///< observer/serialization groups
};

/// Execution knobs for SweepRunner.
struct SweepOptions {
  /// Worker threads. 0 = auto: HYMM_THREADS when set (validated;
  /// UsageError on garbage), else std::thread::hardware_concurrency.
  /// 1 runs everything on the calling thread (today's serial path).
  unsigned threads = 0;
  /// Create one Observer per group (metrics + optional trace).
  bool observe = false;
  ObserverOptions observer_options;  ///< instruments for each group observer
  /// Maps a cell to its observer group. With `observe`, cells with
  /// equal keys run serially in grid order sharing one Observer;
  /// without it, groups only label cells (SweepRun::groups,
  /// on_group_start) and every cell is scheduled on its own. Default:
  /// every cell is its own group.
  std::function<std::string(const SweepCell&)> group_key;
  /// Called (under a lock, from worker threads, in start order) when
  /// the first simulated cell of a group starts — progress reporting.
  /// Groups whose every cell reuses an earlier result never start.
  std::function<void(const SweepCell& first_cell)> on_group_start;
};

/// Resolves a requested thread count: 0 = HYMM_THREADS env (strictly
/// validated) falling back to hardware_concurrency; always >= 1.
unsigned resolve_thread_count(unsigned requested);

/// Runs body(i) for every i in [0, count) on up to `threads` workers
/// (0 = resolve_thread_count's auto policy; 1 = the calling thread).
/// Indices are claimed in increasing order from an atomic counter, so
/// the set of calls — and therefore the result — is independent of
/// the schedule as long as body(i) writes only to its own index-i
/// slot (the discipline SweepRunner follows when it runs its cells
/// through this). Worker exceptions are rethrown on the calling
/// thread (the first one wins).
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

/// Schedules a SweepSpec grid onto worker threads (see file comment
/// for the determinism, reuse and observer-group rules).
class SweepRunner {
 public:
  /// Captures the options; threads spin up per run() call.
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every cell of the grid; returns when all cells finished.
  /// Worker exceptions are rethrown on the calling thread. Reuse is
  /// planned per call: nothing carries over from an earlier run().
  SweepRun run(const SweepSpec& spec);

  /// The cache workloads are built through (shared across run()s).
  WorkloadCache& cache() { return cache_; }

 private:
  SweepOptions options_;
  WorkloadCache cache_;
};

}  // namespace hymm
