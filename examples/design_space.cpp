// Architect's view: how HyMM's performance and silicon area trade off
// as the main design knobs move (DMB capacity, PE count), using the
// cycle model and the calibrated Table III area model together. The
// nine configurations run as one parallel sweep (HYMM_THREADS /
// --threads) sharing a single AP workload build.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "model/area.hpp"
#include "sweep/bench_options.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  const DatasetSpec ap = *find_dataset("AP");
  std::cout << "HyMM design-space exploration on " << ap.name
            << " (x0.5 scale)\n\n";

  const std::vector<std::size_t> pe_counts = {8, 16, 32};
  const std::vector<std::size_t> dmb_kbs = {128, 256, 512};

  SweepSpec spec;
  spec.datasets = {ap};
  spec.flows = {Dataflow::kHybrid};
  spec.scale = 0.5;
  spec.seed = opts.seed;
  spec.configs.clear();
  for (const std::size_t pes : pe_counts) {
    for (const std::size_t dmb_kb : dmb_kbs) {
      AcceleratorConfig config;
      config.pe_count = pes;
      config.dmb_bytes = dmb_kb * 1024;
      spec.configs.push_back(config);
    }
  }

  SweepOptions sweep_options;
  sweep_options.threads = opts.threads;
  SweepRunner runner(sweep_options);
  const SweepRun run = runner.run(spec);

  struct Point {
    std::size_t pes;
    std::size_t dmb_kb;
    Cycle cycles;
    std::uint64_t dram_bytes;
    double area_40nm;
    double perf_per_mm2;  // 1 / (cycles * mm^2)
  };
  std::vector<Point> points;
  for (const SweepCellResult& cell : run.cells) {
    const std::size_t pes = pe_counts[cell.cell.config_index / dmb_kbs.size()];
    const std::size_t dmb_kb =
        dmb_kbs[cell.cell.config_index % dmb_kbs.size()];
    const ExperimentResult& r = cell.result;
    const AreaReport area = estimate_area(cell.cell.config);
    points.push_back({pes, dmb_kb, r.stats.cycles, r.stats.dram_total_bytes(),
                      area.total_40nm_mm2,
                      1.0 / (static_cast<double>(r.stats.cycles) *
                             area.total_40nm_mm2)});
  }

  // Normalize performance-per-area to the paper's configuration
  // (16 PEs, 256 KB).
  double baseline = 1.0;
  for (const Point& p : points) {
    if (p.pes == 16 && p.dmb_kb == 256) baseline = p.perf_per_mm2;
  }

  Table table({"PEs", "DMB", "Cycles", "Runtime @1GHz", "DRAM",
               "Area 40nm", "Perf/mm^2 vs paper cfg"});
  for (const Point& p : points) {
    table.add_row({std::to_string(p.pes), std::to_string(p.dmb_kb) + "KB",
                   std::to_string(p.cycles),
                   Table::fmt(static_cast<double>(p.cycles) / 1e6, 3) + "ms",
                   Table::fmt_bytes(static_cast<double>(p.dram_bytes)),
                   Table::fmt(p.area_40nm, 3) + "mm^2",
                   Table::fmt(p.perf_per_mm2 / baseline, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nThe PE array retires one scalar-vector op per cycle "
               "regardless of its width in this model, so the PE-count "
               "sweep moves area (and the GFLOPS rating) but not cycles; "
               "the DMB sweep shows the buffer-capacity sensitivity.\n";
  return 0;
}
