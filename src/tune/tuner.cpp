#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "sweep/sweep.hpp"
#include "graph/fingerprint.hpp"

namespace hymm {

std::vector<double> candidate_thresholds() {
  return {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50};
}

std::uint64_t workload_fingerprint(const PreparedWorkload& workload) {
  std::uint64_t fp = graph_fingerprint(workload.a_hat());
  fp = fingerprint_combine(fp, graph_fingerprint(workload.workload().features));
  fp = fingerprint_combine(
      fp, (static_cast<std::uint64_t>(workload.weights().rows()) << 32) |
              static_cast<std::uint64_t>(workload.weights().cols()));
  return fingerprint_combine(fp, workload.seed());
}

namespace {

// The search's candidate list: the canonical thresholds plus the
// config's own fixed threshold (so the baseline is always in the
// running, even for non-default configs).
std::vector<double> search_candidates(double fixed_threshold) {
  std::vector<double> thresholds = candidate_thresholds();
  const bool present =
      std::any_of(thresholds.begin(), thresholds.end(), [&](double t) {
        return std::abs(t - fixed_threshold) < 1e-12;
      });
  if (!present) {
    thresholds.push_back(fixed_threshold);
    std::sort(thresholds.begin(), thresholds.end());
  }
  return thresholds;
}

// Index of the fixed threshold inside the search list.
std::size_t fixed_index(const std::vector<double>& thresholds,
                        double fixed_threshold) {
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (std::abs(thresholds[i] - fixed_threshold) < 1e-12) return i;
  }
  HYMM_CHECK_MSG(false, "fixed threshold missing from candidates");
  return 0;
}

// Selection shared by both modes: start from the fixed baseline and
// only move on a strictly smaller metric — ties keep the default.
void pick_best(const std::vector<double>& thresholds,
               const std::vector<double>& metric, std::size_t fixed,
               TuneDecision& decision) {
  std::size_t best = fixed;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (metric[i] < metric[best]) best = i;
  }
  decision.threshold = thresholds[best];
  decision.best_cycles = metric[best];
}

}  // namespace

TuneInfo to_tune_info(const TuneDecision& decision) {
  TuneInfo info;
  info.enabled = decision.mode != AutotuneMode::kOff;
  info.mode = to_string(decision.mode);
  info.fixed_threshold = decision.fixed_threshold;
  info.threshold = decision.threshold;
  info.cache_hit = decision.cache_hit;
  info.simulations = decision.simulations;
  info.graph_fingerprint = fingerprint_hex(decision.graph_fingerprint);
  info.config_hash = fingerprint_hex(decision.config_hash);
  info.candidates.reserve(decision.candidates.size());
  for (const TuneCandidate& c : decision.candidates) {
    info.candidates.push_back({c.threshold, c.model_cycles, c.measured_cycles});
  }
  return info;
}

Tuner::Tuner(std::string cache_path) : cache_(std::move(cache_path)) {}

AcceleratorConfig Tuner::apply(const AcceleratorConfig& config,
                               const TuneDecision& decision) {
  AcceleratorConfig tuned = config;
  tuned.tiling_threshold = decision.threshold;
  return tuned;
}

TuneDecision Tuner::tune(std::shared_ptr<const PreparedWorkload> workload,
                         const AcceleratorConfig& config, AutotuneMode mode,
                         unsigned threads) {
  HYMM_CHECK(workload != nullptr);
  TuneDecision decision;
  decision.mode = mode;
  decision.fixed_threshold = config.tiling_threshold;
  decision.threshold = config.tiling_threshold;
  if (mode == AutotuneMode::kOff) return decision;

  decision.graph_fingerprint = workload_fingerprint(*workload);
  decision.config_hash = tuning_config_hash(config);

  const std::string mode_name = to_string(mode);
  if (const auto hit = cache_.lookup(decision.graph_fingerprint,
                                     decision.config_hash, mode_name)) {
    decision.cache_hit = true;
    decision.threshold = hit->threshold;
    decision.best_cycles = hit->cycles;
    return decision;
  }

  const std::vector<double> thresholds =
      search_candidates(decision.fixed_threshold);
  const std::size_t fixed = fixed_index(thresholds, decision.fixed_threshold);
  const std::size_t dense_cols = workload->weights().cols();

  // Analytic estimates are computed in both modes (they are cheap and
  // the report shows model-vs-measured side by side).
  const std::vector<CostEstimate> estimates = estimate_candidates(
      workload->sort().sorted, config, thresholds, dense_cols);
  decision.candidates.resize(thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    decision.candidates[i].threshold = thresholds[i];
    decision.candidates[i].model_cycles = estimates[i].cycles;
  }

  if (mode == AutotuneMode::kAnalytic) {
    std::vector<double> metric(thresholds.size());
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      metric[i] = estimates[i].cycles;
    }
    pick_best(thresholds, metric, fixed, decision);
  } else {
    // Measured: one hybrid sweep cell per candidate threshold, all
    // sharing the immutable workload (and its once-built degree sort)
    // through the sweep executor. The candidates differ only in
    // tiling_threshold, so the executor simulates their combination
    // phase once and restores it for the rest.
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
    SweepRunner runner(options);
    const SweepRun run = runner.run(spec);
    HYMM_CHECK(run.cells.size() == thresholds.size());

    std::vector<double> metric(thresholds.size());
    for (const SweepCellResult& cell : run.cells) {
      const std::size_t i = cell.cell.config_index;
      metric[i] = static_cast<double>(cell.result.cycles);
      decision.candidates[i].measured_cycles =
          static_cast<double>(cell.result.cycles);
    }
    decision.simulations = run.cells.size();
    measured_simulations_.fetch_add(run.cells.size());
    pick_best(thresholds, metric, fixed, decision);
  }

  TuneCacheEntry entry;
  entry.graph_fingerprint = decision.graph_fingerprint;
  entry.config_hash = decision.config_hash;
  entry.mode = mode_name;
  entry.threshold = decision.threshold;
  entry.cycles = decision.best_cycles;
  entry.dataset = workload->workload().spec.abbrev;
  cache_.insert(entry);
  return decision;
}

}  // namespace hymm
