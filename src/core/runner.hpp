/// @file
/// Experiment runner shared by the bench binaries, the examples and
/// the integration tests: builds a workload, simulates it under each
/// dataflow, verifies the functional output against the golden model
/// and distills the metrics the paper's figures report.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/accelerator.hpp"
#include "core/sampling.hpp"
#include "graph/datasets.hpp"
#include "linalg/gcn.hpp"
#include "obs/histogram.hpp"
#include "obs/spatial.hpp"
#include "obs/timeseries.hpp"

/// Everything in the HyMM reproduction — simulator, graph pipeline,
/// sweep harness and auto-tuner — lives in this namespace.
namespace hymm {

/// One evaluated tuner candidate, as recorded in the run report.
struct TuneCandidateInfo {
  double threshold = 0.0;        ///< candidate tiling threshold
  double measured_cycles = 0.0;  ///< simulated cycles
};

/// Driver-level annotation describing how a result's tiling threshold
/// was chosen (src/tune/). Plain data: core does not depend on the
/// tuner library — drivers that ran the tuner attach the decision to
/// their hybrid results, and the JSON run report serializes it under
/// "tune".
struct TuneInfo {
  bool enabled = false;          ///< false = fixed config threshold
  double fixed_threshold = 0.0;  ///< baseline before tuning
  double threshold = 0.0;        ///< threshold actually simulated
  std::uint64_t simulations = 0; ///< candidate simulations this run paid
  std::string config_hash;       ///< hex digest of the timing config
  std::vector<TuneCandidateInfo> candidates;  ///< search detail
};

/// One simulated (dataset, dataflow, config) cell: the whole-layer
/// counter set, its per-phase/per-region breakdowns and the
/// verification verdict.
struct ExperimentResult {
  std::string dataset;  ///< full dataset name ("Cora")
  std::string abbrev;   ///< Table II abbreviation ("CR")
  double scale = 1.0;   ///< simulation scale factor (1 = full size)
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow simulated

  /// Configured DRAM peak (bytes per cycle): the bandwidth roofline
  /// of stats.dram_bandwidth_utilization() in the reports.
  std::uint64_t dram_peak_bytes_per_cycle = 0;

  double preprocess_ms = 0.0;  ///< Table II sorting cost (hybrid only)
  /// Host wall-clock of the simulation itself (run_layer, excluding
  /// workload build and verification) — the perf-gate artifact's
  /// wall-clock evidence. Machine-dependent; never gated on.
  double sim_wall_ms = 0.0;
  RegionPartition partition;   ///< hybrid only

  bool verified = false;     ///< matches the golden model
  double max_abs_err = 0.0;  ///< worst element error vs. the golden model

  /// Whole-layer counters: cycles (Fig 7), ALU utilization (Fig 8),
  /// DMB hit rate (Fig 9), partial-output peak (Fig 10) and DRAM
  /// bytes per class (Fig 11).
  SimStats stats;

  /// Per-phase counter deltas and the hybrid's per-region breakdown
  /// (hybrid_info.region_stats; zeroed for RWP/OP runs). The JSON run
  /// report serializes all of these.
  SimStats combination_stats;        ///< XW-phase share of `stats`
  SimStats aggregation_stats;        ///< A_hat*XW-phase share of `stats`
  HybridAggregationInfo hybrid_info; ///< per-region stats (hybrid only)

  /// How the tiling threshold was picked (tune.enabled=false means the
  /// fixed config value was used). Filled by drivers, not by
  /// run_experiment itself.
  TuneInfo tune;

  /// Combination-phase sharing within the cell's sweep
  /// (core/accelerator.hpp); all-false unless the request carried a
  /// CombinationShare. Serialized as the "checkpoint" object of
  /// hymm-run-report/9.
  LayerCheckpointInfo checkpoint;

  /// Sampled-mode annotation (core/sampling.hpp): enabled=false on
  /// exact runs. On sampled runs every counter in the stats is a
  /// ratio-estimator extrapolation with the error bars recorded
  /// here, `verified` is always false (band runs produce no
  /// functional output), and the run report labels the result
  /// `"sampled": true`. Serialized as the "sample" object of
  /// hymm-run-report/9.
  SampleInfo sample;

  /// Per-run latency/duration histograms (obs/histogram.hpp), taken
  /// from the request's observer after the layer ran. Empty when the
  /// request had no observer.
  RunHistograms histograms;

  /// Windowed time-series telemetry (obs/timeseries.hpp), taken from
  /// the request's observer. Empty unless the observer was built with
  /// ObserverOptions::timeseries (the --timeseries / HYMM_TIMESERIES
  /// knob). Serialized in the run report (hymm-run-report/5).
  TimeSeriesData timeseries;

  /// Spatial attribution (obs/spatial.hpp): per-PE-lane busy/MAC
  /// counters and the per-tile heatmap over the adjacency. Empty
  /// unless the observer was built with ObserverOptions::spatial (the
  /// --spatial / HYMM_SPATIAL knob). Serialized as the "spatial"
  /// object of hymm-run-report/9; conservation against `stats` is
  /// DCHECKed when taken.
  SpatialData spatial;
};

/// Everything one experiment needs, named instead of positional.
/// workload/a_hat/weights/reference are required and shared immutably
/// across flows (and, via the sweep executor's WorkloadCache, across
/// threads) to avoid rebuilding them. `observer` (optional) collects
/// metrics and trace events; it never affects timing. `sort` +
/// `sorted_features` optionally hand the hybrid its degree-sorting
/// preprocessing precomputed (see LayerRunRequest).
struct ExperimentRequest {
  const GcnWorkload* workload = nullptr;   ///< required: the input graph
  const CsrMatrix* a_hat = nullptr;        ///< required: normalized adjacency
  const DenseMatrix* weights = nullptr;    ///< required: layer weights
  const DenseMatrix* reference = nullptr;  ///< golden aggregation output
  Dataflow flow = Dataflow::kRowWiseProduct;  ///< dataflow to simulate
  AcceleratorConfig config;                ///< hardware parameters
  Observer* observer = nullptr;            ///< optional; never affects timing
  const DegreeSortResult* sort = nullptr;  ///< optional precomputed sort
  const CsrMatrix* sorted_features = nullptr;  ///< features under `sort`
  /// Optional combination-phase sharing (CombinationShare), forwarded
  /// to LayerRunRequest::share. Ignored when `observer` is set.
  CombinationShare share;
  /// Sampled-simulation fraction (0 = exact run). When > 0 the layer
  /// runs in sampled mode (core/sampling.hpp): cycles/stalls/DRAM
  /// bytes are seeded-subset extrapolations with error bars, the
  /// result is never functionally verified, and observer/share are
  /// ignored.
  double sample = 0.0;
  /// Band-selection seed of sampled runs.
  std::uint64_t sample_seed = 42;
};

/// Simulates one GCN layer of the request's workload under its flow
/// and verifies the result against the golden reference.
ExperimentResult run_experiment(const ExperimentRequest& request);

/// All requested dataflows simulated on one shared workload build.
struct DataflowComparison {
  DatasetSpec spec;    ///< post-scaling
  double scale = 1.0;  ///< scale the workload was built at
  std::vector<ExperimentResult> results;  ///< one per requested flow

  /// The result for `flow`; aborts if it was not requested.
  const ExperimentResult& by_flow(Dataflow flow) const;
};

/// Builds the dataset's synthetic workload once and runs every
/// requested dataflow on it. `scale < 0` selects default_scale(spec).
/// With an observer, each flow becomes its own trace process group
/// (labelled "<flow>/<abbrev>") in the shared trace file.
DataflowComparison compare_dataflows(
    const DatasetSpec& spec, const AcceleratorConfig& config,
    const std::vector<Dataflow>& flows =
        {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
         Dataflow::kHybrid},
    double scale = -1.0, std::uint64_t seed = 42, Observer* obs = nullptr);

}  // namespace hymm
