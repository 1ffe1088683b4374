// Perf-regression harness: simulates the selected workloads under all
// three dataflows and writes one hymm-run-report/9 (cycles, stall
// vectors per phase and hybrid region, DRAM bytes per dataset x
// dataflow). bench/hymm_diff compares two such reports exactly and
// gates CI on any difference.
//
//   perf_regression [--out FILE] [bench flags]
//
// The output path defaults to BENCH_dev.json in the working
// directory; the file name is the snapshot's only label. Dataset
// selection, scaling and sweep parallelism follow the shared bench
// knobs (HYMM_DATASETS, HYMM_SCALE, HYMM_FULL_DATASETS, HYMM_THREADS /
// --datasets, --scale, --threads, ...).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/version.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  std::vector<std::string> rest;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv, &rest);

  std::string out_path = "BENCH_dev.json";
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--out" && i + 1 < rest.size()) {
      out_path = rest[++i];
    } else if (rest[i] == "--version") {
      std::cout << "perf_regression\n"
                << "  run-report schema: " << kRunReportSchema << '\n';
      return 0;
    } else {
      std::cerr << (rest[i] == "--out" ? "missing value for "
                                       : "unknown argument ")
                << rest[i] << "\nusage: perf_regression [--out FILE] "
                << "[bench flags]\n";
      return 2;
    }
  }

  std::vector<ExperimentResult> results;
  for (DataflowComparison& comparison : bench::run_datasets(opts)) {
    for (ExperimentResult& r : comparison.results) {
      results.push_back(std::move(r));
    }
  }

  std::ofstream out(out_path);
  write_results_json(results, out);
  out.close();
  if (!out) {
    std::cerr << "[bench] failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "[bench] wrote " << out_path << "\n";
  return 0;
}
