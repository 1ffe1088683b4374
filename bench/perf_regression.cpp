// Perf-regression harness: simulates the selected workloads under all
// three dataflows and writes a schema-versioned BENCH_<rev>.json
// snapshot (cycles, stall vector, DRAM bytes per dataset x dataflow).
// scripts/perf_compare diffs two snapshots and gates CI on cycle
// regressions.
//
//   perf_regression [--out FILE] [--rev NAME] [bench flags]
//
// The revision label defaults to $HYMM_BENCH_REV, then "dev"; the
// output path defaults to BENCH_<rev>.json in the working directory.
// Dataset selection, scaling and sweep parallelism follow the shared
// bench knobs (HYMM_DATASETS, HYMM_SCALE, HYMM_FULL_DATASETS,
// HYMM_THREADS / --datasets, --scale, --threads, ...). With
// --autotune (HYMM_AUTOTUNE=measured) the hybrid runs under each
// dataset's measured-best tiling threshold instead of the fixed
// default.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/version.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  std::vector<std::string> rest;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv, &rest);

  std::string rev;
  if (const char* env = std::getenv("HYMM_BENCH_REV")) rev = env;
  std::string out_path;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--out" && i + 1 < rest.size()) {
      out_path = rest[++i];
    } else if (rest[i] == "--rev" && i + 1 < rest.size()) {
      rev = rest[++i];
    } else if (rest[i] == "--version") {
      std::cout << "perf_regression\n"
                << "  bench schema:      " << kBenchSchema << '\n'
                << "  run-report schema: " << kRunReportSchema << '\n';
      return 0;
    } else {
      std::cerr << "usage: perf_regression [--out FILE] [--rev NAME] "
                   "[bench flags]\n";
      return 2;
    }
  }
  if (rev.empty()) rev = "dev";
  if (out_path.empty()) out_path = "BENCH_" + rev + ".json";

  const std::vector<DataflowComparison> comparisons =
      bench::run_datasets_with_policy(opts);

  const auto write_stalls = [](JsonWriter& w, const SimStats& s) {
    w.key("stalls");
    w.begin_object();
    for (std::size_t i = 0; i < kStallCauseCount; ++i) {
      w.field(stall_cause_key(static_cast<StallCause>(i)),
              std::uint64_t{s.stall_cycles[i]});
    }
    w.end_object();
  };
  // Schema /2 adds the per-phase {cycles, stalls} breakdown (and the
  // hybrid's per-region split) so hymm_diff can attribute a cycle
  // delta between two snapshots to (phase, stall cause).
  const auto write_phase = [&](JsonWriter& w, Cycle cycles,
                               const SimStats& s) {
    w.begin_object();
    w.field("cycles", std::uint64_t{cycles});
    write_stalls(w, s);
    w.end_object();
  };

  std::ofstream out(out_path);
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", kBenchSchema);
  w.field("rev", rev);
  w.key("runs");
  w.begin_array();
  for (const DataflowComparison& comparison : comparisons) {
    for (const ExperimentResult& r : comparison.results) {
      w.begin_object();
      w.field("dataset", r.dataset);
      w.field("abbrev", r.abbrev);
      w.field("scale", r.scale);
      w.field("flow", to_string(r.flow));
      w.field("cycles", std::uint64_t{r.cycles});
      // Host wall-clock of the simulation (machine-dependent evidence
      // for hot-loop optimizations; perf_compare ignores it) and the
      // cycles covered by the event-driven fast-forward.
      w.field("sim_wall_ms", r.sim_wall_ms);
      w.field("skipped_cycles", std::uint64_t{r.stats.skipped_cycles});
      w.field("dram_total_bytes", r.dram_total_bytes);
      w.key("stalls");
      w.begin_object();
      for (std::size_t i = 0; i < kStallCauseCount; ++i) {
        w.field(stall_cause_key(static_cast<StallCause>(i)),
                std::uint64_t{r.stats.stall_cycles[i]});
      }
      w.end_object();
      w.field("bottleneck", to_string(r.stats.bottleneck()));
      w.field("verified", r.verified);
      // Schema /3: sampled-run labeling. perf_compare refuses to gate
      // a sampled snapshot against an exact one and widens its cycle
      // tolerance by the labeled error bound on sampled-vs-sampled
      // pairs (docs/performance.md).
      w.field("sampled", r.sample.enabled);
      if (r.sample.enabled) {
        w.field("sample_fraction", r.sample.fraction);
        w.field("sample_rel_error_bound", r.sample.rel_error_bound());
      }
      w.key("combination");
      write_phase(w, r.combination_cycles, r.combination_stats);
      w.key("aggregation");
      write_phase(w, r.aggregation_cycles, r.aggregation_stats);
      if (r.flow == Dataflow::kHybrid) {
        w.key("regions");
        w.begin_array();
        for (const SimStats& region : r.hybrid_info.region_stats) {
          write_phase(w, region.stall_total(), region);
        }
        w.end_array();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  out << '\n';
  out.close();
  if (!out) {
    std::cerr << "[bench] failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "[bench] wrote " << out_path << "\n";
  return 0;
}
