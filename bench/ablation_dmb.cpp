// Ablation: DMB capacity sweep and LRU-vs-FIFO eviction. The paper
// fixes a 256 KB unified buffer (Table III); this sweep shows the
// sensitivity of each dataflow to the buffer size and the value of
// recency-aware eviction, next to the area each buffer size costs.
#include <iostream>

#include "bench_common.hpp"
#include "model/area.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  BenchOptions opts = bench::init(argc, argv);
  bench::print_header("DMB capacity / eviction-policy sweep",
                      "design-space ablation of Table III");

  if (!opts.datasets_explicit) opts.datasets = {*find_dataset("AP")};
  const std::vector<std::size_t> sizes_kb = {32, 64, 128, 256, 512, 1024};
  const std::vector<EvictionPolicy> policies = {EvictionPolicy::kLru,
                                                EvictionPolicy::kFifo};
  std::vector<AcceleratorConfig> configs;
  for (const std::size_t kb : sizes_kb) {
    for (const EvictionPolicy policy : policies) {
      AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.eviction_policy = policy;
      configs.push_back(config);
    }
  }
  const auto sweep = bench::run_config_sweep(opts, configs);

  Table table({"Dataset", "DMB", "Policy", "OP cycles", "RWP cycles",
               "HyMM cycles", "HyMM hit", "Area 40nm"});
  for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const DataflowComparison& cmp = sweep[c][d];
      table.add_row(
          {bench::scale_note(cmp),
           std::to_string(sizes_kb[c / policies.size()]) + "KB",
           to_string(policies[c % policies.size()]),
           std::to_string(cmp.by_flow(Dataflow::kOuterProduct).stats.cycles),
           std::to_string(
               cmp.by_flow(Dataflow::kRowWiseProduct).stats.cycles),
           std::to_string(cmp.by_flow(Dataflow::kHybrid).stats.cycles),
           Table::fmt_percent(
               cmp.by_flow(Dataflow::kHybrid).stats.dmb_hit_rate(), 1),
           Table::fmt(estimate_area(configs[c]).total_40nm_mm2, 3) + "mm^2"});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: HyMM keeps most of its advantage down to "
               "small buffers (tiling adapts region sizes); LRU beats FIFO "
               "most where the XW working set barely exceeds capacity.\n";
  return 0;
}
