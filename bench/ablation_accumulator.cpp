// Ablation: near-memory accumulator on/off (Section IV-D / Fig 10).
// Off, HyMM's region-1 OP phase degrades to append-and-merge like the
// traditional outer product; the sweep quantifies what the
// accumulator itself contributes to HyMM.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Near-memory accumulator ablation (HyMM)",
                      "Fig 10 / Section IV-D");

  // configs[0] = accumulator on, configs[1] = off.
  std::vector<AcceleratorConfig> configs(2);
  configs[1].near_memory_accumulator = false;
  const auto sweep =
      bench::run_config_sweep(opts, configs, {Dataflow::kHybrid});

  Table table({"Dataset", "Accumulator", "Cycles", "DRAM",
               "Partial peak", "ALU util"});
  for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const DataflowComparison& cmp = sweep[c][d];
      const auto& hymm = cmp.by_flow(Dataflow::kHybrid);
      table.add_row(
          {bench::scale_note(cmp), c == 0 ? "on" : "off",
           std::to_string(hymm.stats.cycles),
           Table::fmt_bytes(static_cast<double>(hymm.stats.dram_total_bytes())),
           Table::fmt_bytes(static_cast<double>(hymm.stats.partial_bytes_peak)),
           Table::fmt_percent(hymm.stats.alu_utilization(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper: incorporating the accumulator near the DMB cuts "
               "the partial-output footprint by up to 85% (AP) and removes "
               "the spill/merge traffic from region 1.\n";
  return 0;
}
