// Ablation: tiling-threshold sweep. The paper fixes the maximum
// region size at 20% of the nodes (Section IV-E); this sweep shows
// how HyMM's cycles, traffic and partial footprint respond to the
// threshold (0 disables region 1 entirely, i.e. pure RWP on the
// sorted graph). The "vs 20%" column is the 20% row's cycles over
// each row's, so a dataset's best threshold is its largest entry
// (docs/tuning.md).
#include <array>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Tiling-threshold sweep (HyMM)",
                      "design-space ablation of Section IV-E");

  // Only the two datasets the paper highlights unless filtered.
  if (!opts.datasets_explicit) {
    opts.datasets = {*find_dataset("AP"), *find_dataset("AC")};
  }
  // Includes the paper's 20% (the "vs 20%" reference) and 0 (no OP
  // region). Beyond 50% the DMB clamp has long since bound region 1
  // on the paper graphs.
  constexpr std::array<double, 8> thresholds = {0.0,  0.05, 0.10, 0.15,
                                                0.20, 0.25, 0.35, 0.50};
  constexpr std::size_t kPaper = 4;
  static_assert(thresholds[kPaper] == 0.20);
  std::vector<AcceleratorConfig> configs(thresholds.size());
  for (std::size_t c = 0; c < thresholds.size(); ++c) {
    configs[c].tiling_threshold = thresholds[c];
  }
  const auto sweep =
      bench::run_config_sweep(opts, configs, {Dataflow::kHybrid});

  Table table({"Dataset", "Threshold", "R1 rows", "Cycles", "vs 20%",
               "DRAM", "Partial peak", "Hit rate"});
  for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
    const auto paper_cycles = static_cast<double>(
        sweep[kPaper][d].by_flow(Dataflow::kHybrid).stats.cycles);
    for (std::size_t c = 0; c < thresholds.size(); ++c) {
      const DataflowComparison& cmp = sweep[c][d];
      const auto& hymm = cmp.by_flow(Dataflow::kHybrid);
      table.add_row({bench::scale_note(cmp),
                     Table::fmt_percent(thresholds[c], 0),
                     std::to_string(hymm.partition.region1_rows),
                     std::to_string(hymm.stats.cycles),
                     Table::fmt(paper_cycles / static_cast<double>(
                                                   hymm.stats.cycles),
                                3) + "x",
                     Table::fmt_bytes(static_cast<double>(
                         hymm.stats.dram_total_bytes())),
                     Table::fmt_bytes(static_cast<double>(
                         hymm.stats.partial_bytes_peak)),
                     Table::fmt_percent(hymm.stats.dmb_hit_rate(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nThe paper's 20% threshold sits at the flat part of the "
               "cycle curve: larger regions stop helping once the pinnable "
               "DMB share clamps region 1.\n";
  return 0;
}
