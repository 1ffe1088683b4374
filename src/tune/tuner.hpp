/// @file
/// The per-graph partition auto-tuner. Picks the hybrid tiling
/// threshold for a concrete workload instead of trusting the fixed
/// paper default (20 %), in one of two modes:
///
///   - AutotuneMode::kAnalytic — evaluate the cost model
///     (tune/cost_model.hpp) on every candidate threshold and keep
///     the estimate-minimal one. No simulation; milliseconds.
///   - AutotuneMode::kMeasured — run every candidate through the real
///     simulator as a SweepSpec (one hybrid cell per candidate,
///     fanned across SweepRunner workers) and keep the cycle-minimal
///     one. Exact; costs |candidates| simulations on a miss.
///
/// Both modes share one selection rule: the fixed threshold from the
/// config is always a candidate and is only displaced by a *strictly*
/// better one, so a tuned run can never be worse than the fixed
/// baseline under the mode's own metric (ties keep the paper
/// default). Decisions are persisted in a TuneCache keyed by
/// (workload fingerprint, config hash, mode); a repeat run is a
/// lookup with zero simulations. See docs/tuning.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/runner.hpp"
#include "sweep/workload_cache.hpp"
#include "tune/cost_model.hpp"
#include "tune/tune_cache.hpp"

namespace hymm {

/// The canonical candidate thresholds every tuning search (and the
/// tiling ablation) sweeps: {0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35,
/// 0.50}. Includes the paper's fixed 20 % so tuned-vs-fixed is an
/// argmin-vs-member comparison, and 0 so the "no OP region" corner
/// stays covered. Thresholds beyond 0.50 are pointless on the paper
/// graphs: the DMB clamp has long since bound both regions.
std::vector<double> candidate_thresholds();

/// Content fingerprint of a prepared workload: its normalized
/// adjacency, feature structure, weight shape and seed combined. Two
/// workloads with equal fingerprints are the same tuning problem.
std::uint64_t workload_fingerprint(const PreparedWorkload& workload);

/// One candidate's outcome inside a decision.
struct TuneCandidate {
  double threshold = 0.0;        ///< candidate tiling threshold
  double model_cycles = 0.0;     ///< analytic estimate (both modes)
  double measured_cycles = 0.0;  ///< simulated cycles; 0 if not simulated
};

/// The tuner's verdict for one (workload, config, mode) question.
struct TuneDecision {
  AutotuneMode mode = AutotuneMode::kOff;  ///< mode the search ran in
  double fixed_threshold = 0.0;  ///< config.tiling_threshold going in
  double threshold = 0.0;        ///< chosen tiling threshold
  double best_cycles = 0.0;  ///< winner's metric (cycles or estimate)
  bool cache_hit = false;    ///< true when served from the TuneCache
  std::uint64_t simulations = 0;  ///< simulator runs this call paid for
  std::uint64_t graph_fingerprint = 0;  ///< workload_fingerprint() digest
  std::uint64_t config_hash = 0;        ///< tuning_config_hash() digest
  /// Every evaluated candidate, in search order. Empty on cache hits
  /// (the cache stores only the verdict).
  std::vector<TuneCandidate> candidates;
};

/// Converts a decision into the plain TuneInfo annotation drivers
/// attach to hybrid ExperimentResults for the run report (the kOff
/// decision maps to enabled=false, i.e. no "tune" object).
TuneInfo to_tune_info(const TuneDecision& decision);

/// Stateful tuner bound to one cache file (or memory-only when the
/// path is empty). Thread-safe: the cache is internally locked and
/// measured searches use their own SweepRunner.
class Tuner {
 public:
  /// `cache_path` — the `hymm-tune-cache/2` file to load and persist
  /// decisions in; empty keeps decisions in memory only.
  explicit Tuner(std::string cache_path = {});

  /// Answers "which threshold should this workload run with?".
  /// `config.tiling_threshold` is read as the fixed baseline;
  /// `threads` only matters for measured misses (0 = HYMM_THREADS /
  /// auto, like SweepOptions). kOff returns the fixed threshold
  /// without touching the cache. The measured search runs its
  /// candidates as one sweep, which shares their combination phase.
  TuneDecision tune(std::shared_ptr<const PreparedWorkload> workload,
                    const AcceleratorConfig& config, AutotuneMode mode,
                    unsigned threads = 1);

  /// `config` with the decision's threshold applied — what sweep
  /// cells should actually run.
  static AcceleratorConfig apply(const AcceleratorConfig& config,
                                 const TuneDecision& decision);

  /// Total candidate simulations this tuner has paid for (cache hits
  /// add zero) — the test hook for "second run skips simulation".
  std::uint64_t measured_simulations() const {
    return measured_simulations_.load();
  }

  TuneCache& cache() { return cache_; }  ///< the underlying decision cache

 private:
  TuneCache cache_;
  std::atomic<std::uint64_t> measured_simulations_{0};
};

}  // namespace hymm
