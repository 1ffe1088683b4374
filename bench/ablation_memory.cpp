// Ablation: memory-system micro-parameters the paper leaves implicit
// — MSHR count (random-miss parallelism), OP stationary-row prefetch
// depth (sequential-stream coverage) and DRAM write-buffer depth
// (spill back-pressure). Shows which mechanism each dataflow's
// performance actually leans on.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  BenchOptions opts = bench::init(argc, argv);
  bench::print_header("Memory-system parameter sweeps",
                      "modeling ablation (Sections IV-B/IV-D)");

  // The paper's AP workload unless the user narrowed the selection to
  // something else; each sub-sweep uses the first selected dataset.
  if (!opts.datasets_explicit) opts.datasets = {*find_dataset("AP")};
  opts.datasets.resize(1);

  std::cout << "-- MSHR count (miss-level parallelism) --\n";
  const std::vector<std::size_t> mshr_counts = {4, 8, 16, 32, 64};
  std::vector<AcceleratorConfig> mshr_configs(mshr_counts.size());
  for (std::size_t c = 0; c < mshr_counts.size(); ++c) {
    mshr_configs[c].dmb_mshr_entries = mshr_counts[c];
  }
  const auto mshr_sweep = bench::run_config_sweep(opts, mshr_configs);
  Table mshr_table({"MSHRs", "OP cycles", "RWP cycles", "HyMM cycles"});
  for (std::size_t c = 0; c < mshr_counts.size(); ++c) {
    const DataflowComparison& cmp = mshr_sweep[c][0];
    mshr_table.add_row(
        {std::to_string(mshr_counts[c]),
         std::to_string(cmp.by_flow(Dataflow::kOuterProduct).stats.cycles),
         std::to_string(cmp.by_flow(Dataflow::kRowWiseProduct).stats.cycles),
         std::to_string(cmp.by_flow(Dataflow::kHybrid).stats.cycles)});
  }
  mshr_table.print(std::cout);

  std::cout << "\n-- OP stationary-row prefetch depth --\n";
  const std::vector<std::size_t> depths = {0, 16, 64, 128, 256};
  std::vector<AcceleratorConfig> pf_configs(depths.size());
  for (std::size_t c = 0; c < depths.size(); ++c) {
    pf_configs[c].op_prefetch_columns = depths[c];
  }
  const auto pf_sweep = bench::run_config_sweep(
      opts, pf_configs, {Dataflow::kOuterProduct, Dataflow::kHybrid});
  Table pf_table({"Depth", "OP cycles", "HyMM cycles"});
  for (std::size_t c = 0; c < depths.size(); ++c) {
    const DataflowComparison& cmp = pf_sweep[c][0];
    pf_table.add_row(
        {std::to_string(depths[c]),
         std::to_string(cmp.by_flow(Dataflow::kOuterProduct).stats.cycles),
         std::to_string(cmp.by_flow(Dataflow::kHybrid).stats.cycles)});
  }
  pf_table.print(std::cout);

  std::cout << "\n-- DRAM write-buffer depth (spill back-pressure) --\n";
  const std::vector<std::size_t> wb_lines = {8, 32, 64, 256};
  std::vector<AcceleratorConfig> wb_configs(wb_lines.size());
  for (std::size_t c = 0; c < wb_lines.size(); ++c) {
    wb_configs[c].dram_write_buffer_lines = wb_lines[c];
  }
  const auto wb_sweep = bench::run_config_sweep(
      opts, wb_configs, {Dataflow::kOuterProduct, Dataflow::kHybrid});
  Table wb_table({"Lines", "OP cycles", "OP util", "HyMM cycles"});
  for (std::size_t c = 0; c < wb_lines.size(); ++c) {
    const DataflowComparison& cmp = wb_sweep[c][0];
    const SimStats& op = cmp.by_flow(Dataflow::kOuterProduct).stats;
    wb_table.add_row(
        {std::to_string(wb_lines[c]), std::to_string(op.cycles),
         Table::fmt_percent(op.alu_utilization(), 1),
         std::to_string(cmp.by_flow(Dataflow::kHybrid).stats.cycles)});
  }
  wb_table.print(std::cout);

  std::cout << "\nReading: RWP leans hard on MSHRs (its XW reads are "
               "random); HyMM is mildly sensitive to MSHRs and the "
               "prefetch depth (regions 2/3 still issue random reads); "
               "the OP baseline barely moves on this workload because its "
               "runtime is pinned by the serial spill-merge pass, not by "
               "read-side parallelism.\n";
  return 0;
}
