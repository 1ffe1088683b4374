/// @file
/// The measured threshold search behind `--autotune`: picks the
/// hybrid tiling threshold for a concrete workload instead of
/// trusting the fixed paper default (20 %). Every candidate threshold
/// runs through the real simulator as one SweepSpec (one hybrid cell
/// per candidate, fanned across SweepRunner workers, sharing one
/// combination phase) and the cycle-minimal one wins.
///
/// The fixed threshold from the config is always a candidate and is
/// only displaced by a *strictly* smaller cycle count, so a tuned run
/// can never be worse than the fixed baseline (ties keep the paper
/// default). See docs/tuning.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/runner.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {

/// The canonical candidate thresholds the search (and the tiling
/// ablation) sweeps: {0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50}.
/// Includes the paper's fixed 20 % so tuned-vs-fixed is an
/// argmin-vs-member comparison, and 0 so the "no OP region" corner
/// stays covered. Thresholds beyond 0.50 are pointless on the paper
/// graphs: the DMB clamp has long since bound both regions.
std::vector<double> candidate_thresholds();

/// The search's verdict for one (workload, config) question.
struct TuneDecision {
  AutotuneMode mode = AutotuneMode::kOff;  ///< mode the search ran in
  double fixed_threshold = 0.0;  ///< config.tiling_threshold going in
  double threshold = 0.0;        ///< chosen tiling threshold
  double best_cycles = 0.0;      ///< winner's simulated cycles
  std::uint64_t simulations = 0;  ///< simulator runs the search paid for
  std::uint64_t config_hash = 0;  ///< tuning_config_hash() digest
  /// Every simulated candidate, in ascending threshold order.
  std::vector<TuneCandidateInfo> candidates;
};

/// Converts a decision into the plain TuneInfo annotation drivers
/// attach to hybrid ExperimentResults for the run report (the kOff
/// decision maps to enabled=false, i.e. no "tune" object).
TuneInfo to_tune_info(const TuneDecision& decision);

/// Answers "which threshold should this workload run with?".
/// `config.tiling_threshold` is read as the fixed baseline; `threads`
/// sizes the candidate sweep (0 = HYMM_THREADS / auto, like
/// SweepOptions) and never changes the decision. kOff returns the
/// fixed threshold without simulating.
TuneDecision tune_threshold(std::shared_ptr<const PreparedWorkload> workload,
                            const AcceleratorConfig& config,
                            AutotuneMode mode, unsigned threads = 1);

}  // namespace hymm
