// Shared scaffolding for the per-figure bench binaries.
//
// Every binary simulates the paper's seven workloads (Table II) under
// the dataflows it needs and prints the rows/series of one table or
// figure. The shared knobs (environment variables or --key=value
// flags; flags win) are parsed by BenchOptions::from_env_and_args:
//   HYMM_DATASETS=CR,AP  / --datasets=CR,AP   run a subset
//   HYMM_FULL_DATASETS=1 / --full-datasets    Flickr/Yelp at full size
//   HYMM_SCALE=0.1       / --scale=0.1        scale override
//   HYMM_TRACE_DIR=dir   / --trace-dir=dir    Perfetto trace per dataset
//   HYMM_JSON_DIR=dir    / --json-dir=dir     JSON run report per dataset
//   HYMM_THREADS=4       / --threads=4        sweep workers (0 = auto)
// Unknown datasets or malformed values fail fast with exit 2 naming
// the offender. Simulated cycle counts are independent of the thread
// count — the sweep executor guarantees bit-identical per-cell stats.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "obs/observer.hpp"
#include "sweep/bench_options.hpp"
#include "sweep/sweep.hpp"

namespace hymm::bench {

inline std::string scale_note(const DataflowComparison& comparison) {
  if (comparison.scale == 1.0) return comparison.spec.abbrev;
  std::ostringstream oss;
  oss << comparison.spec.abbrev << " (x" << comparison.scale << ")";
  return oss.str();
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "== " << title << " ==\n"
            << "   reproduces: " << paper_ref << "\n"
            << "   (synthetic workloads; compare shapes, not absolute "
               "values — see EXPERIMENTS.md)\n\n";
}

// Warns when a dataflow run failed functional verification.
inline void check_verified(const DataflowComparison& comparison) {
  for (const ExperimentResult& r : comparison.results) {
    if (!r.verified) {
      std::cerr << "[bench] WARNING: " << r.abbrev << "/"
                << to_string(r.flow)
                << " failed functional verification (max err "
                << r.max_abs_err << ")\n";
    }
  }
}

// Writes one observer group's trace/report files (one per dataset and
// config, under opts.trace_dir / opts.json_dir).
inline void write_group_artifacts(const BenchOptions& opts,
                                  const DataflowComparison& comparison,
                                  const Observer& observer,
                                  const std::string& infix) {
  if (!opts.trace_dir.empty()) {
    const std::string path =
        opts.trace_dir + "/" + comparison.spec.abbrev + infix + ".trace.json";
    std::ofstream out(path);
    observer.trace().write(out);
    std::cerr << "[bench] wrote " << path << " ("
              << observer.trace().event_count() << " events";
    if (observer.trace().dropped_instants() > 0) {
      std::cerr << ", " << observer.trace().dropped_instants()
                << " instants dropped";
    }
    std::cerr << ")\n";
  }
  if (!opts.json_dir.empty()) {
    const std::string path =
        opts.json_dir + "/" + comparison.spec.abbrev + infix + ".report.json";
    std::ofstream out(path);
    write_results_json(comparison.results, out, &observer.metrics(),
                       &observer.trace());
    std::cerr << "[bench] wrote " << path << "\n";
  }
}

// Runs `flows` on every selected dataset for each config, scheduling
// the (dataset, config) grid across opts.threads sweep workers with
// one shared workload build per dataset. Results come back in stable
// grid order, indexed [config][dataset], with cycles bit-identical to
// a serial run. With trace/json dirs set, one file per (dataset,
// config) group is written: <dir>/<abbrev>.trace.json (plus a ".cK"
// infix for configs beyond the first when sweeping several).
inline std::vector<std::vector<DataflowComparison>> run_config_sweep(
    const BenchOptions& opts,
    const std::vector<AcceleratorConfig>& configs,
    const std::vector<Dataflow>& flows = {Dataflow::kOuterProduct,
                                          Dataflow::kRowWiseProduct,
                                          Dataflow::kHybrid}) {
  SweepSpec spec;
  spec.datasets = opts.datasets;
  spec.configs = configs;
  spec.flows = flows;
  spec.scale = opts.scale;
  if (!opts.scale && opts.full_datasets) spec.scale = 1.0;
  spec.seed = opts.seed;

  SweepOptions sweep_options = opts.sweep_options();
  // One group per (dataset, config): its flows share one observer and
  // run serially, so each trace/report file covers one comparison.
  sweep_options.group_key = [](const SweepCell& cell) {
    return cell.spec.abbrev + "#" + std::to_string(cell.config_index);
  };
  sweep_options.on_group_start = [](const SweepCell& first) {
    std::cerr << "[bench] simulating " << first.spec.abbrev << " at scale "
              << first.scale << " ..." << std::endl;
  };

  SweepRunner runner(sweep_options);
  const SweepRun run = runner.run(spec);

  std::vector<std::vector<DataflowComparison>> by_config(
      configs.size(),
      std::vector<DataflowComparison>(opts.datasets.size()));
  for (const SweepGroup& group : run.groups) {
    const SweepCell& first = run.cells[group.cells.front()].cell;
    const std::size_t dataset_index =
        first.index / (configs.size() * flows.size());
    DataflowComparison& comparison =
        by_config[first.config_index][dataset_index];
    comparison.spec = run.cells[group.cells.front()].scaled_spec;
    comparison.scale = first.scale;
    for (const std::size_t ci : group.cells) {
      comparison.results.push_back(run.cells[ci].result);
    }
    check_verified(comparison);

    if (group.observer == nullptr) continue;
    // cK infix keeps multi-config sweeps from overwriting each other.
    const std::string infix =
        configs.size() > 1 ? ".c" + std::to_string(first.config_index) : "";
    write_group_artifacts(opts, comparison, *group.observer, infix);
  }
  return by_config;
}

// Single-config convenience: the three-dataflow comparison for every
// selected dataset, in selection order.
inline std::vector<DataflowComparison> run_datasets(
    const BenchOptions& opts, const AcceleratorConfig& config = {},
    const std::vector<Dataflow>& flows = {Dataflow::kOuterProduct,
                                          Dataflow::kRowWiseProduct,
                                          Dataflow::kHybrid}) {
  std::vector<std::vector<DataflowComparison>> by_config =
      run_config_sweep(opts, {config}, flows);
  return std::move(by_config.front());
}

}  // namespace hymm::bench
