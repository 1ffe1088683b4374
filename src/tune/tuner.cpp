#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "graph/fingerprint.hpp"
#include "sweep/sweep.hpp"

namespace hymm {

std::vector<double> candidate_thresholds() {
  return {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50};
}

TuneInfo to_tune_info(const TuneDecision& decision) {
  TuneInfo info;
  info.enabled = decision.mode != AutotuneMode::kOff;
  info.fixed_threshold = decision.fixed_threshold;
  info.threshold = decision.threshold;
  info.simulations = decision.simulations;
  info.config_hash = fingerprint_hex(decision.config_hash);
  info.candidates = decision.candidates;
  return info;
}

TuneDecision tune_threshold(std::shared_ptr<const PreparedWorkload> workload,
                            const AcceleratorConfig& config,
                            AutotuneMode mode, unsigned threads) {
  HYMM_CHECK(workload != nullptr);
  TuneDecision decision;
  decision.mode = mode;
  decision.fixed_threshold = config.tiling_threshold;
  decision.threshold = config.tiling_threshold;
  if (mode == AutotuneMode::kOff) return decision;
  decision.config_hash = tuning_config_hash(config);

  // The canonical candidates plus the config's own fixed threshold, so
  // the baseline is always in the running, even for non-default
  // configs.
  const auto is_fixed = [&](double t) {
    return std::abs(t - decision.fixed_threshold) < 1e-12;
  };
  std::vector<double> thresholds = candidate_thresholds();
  if (std::none_of(thresholds.begin(), thresholds.end(), is_fixed)) {
    thresholds.push_back(decision.fixed_threshold);
    std::sort(thresholds.begin(), thresholds.end());
  }

  // One hybrid sweep cell per candidate, all sharing the immutable
  // workload (and its once-built degree sort). The candidates differ
  // only in tiling_threshold, so the executor simulates their
  // combination phase once and restores it for the rest.
  SweepSpec spec;
  spec.workloads = {workload};
  spec.flows = {Dataflow::kHybrid};
  spec.configs.clear();
  for (const double t : thresholds) {
    AcceleratorConfig candidate = config;
    candidate.tiling_threshold = t;
    spec.configs.push_back(candidate);
  }
  SweepOptions options;
  options.threads = threads;
  const SweepRun run = SweepRunner(options).run(spec);
  HYMM_CHECK(run.cells.size() == thresholds.size());
  decision.simulations = run.cells.size();
  decision.candidates.resize(thresholds.size());
  for (const SweepCellResult& cell : run.cells) {
    const std::size_t i = cell.cell.config_index;
    decision.candidates[i] = {thresholds[i],
                              static_cast<double>(cell.result.stats.cycles)};
  }

  // Start from the fixed baseline and only move on strictly fewer
  // cycles: ties keep the paper default.
  const auto fixed = std::find_if(thresholds.begin(), thresholds.end(), is_fixed);
  std::size_t best = static_cast<std::size_t>(fixed - thresholds.begin());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (decision.candidates[i].measured_cycles <
        decision.candidates[best].measured_cycles) {
      best = i;
    }
  }
  decision.threshold = thresholds[best];
  decision.best_cycles = decision.candidates[best].measured_cycles;
  return decision;
}

}  // namespace hymm
