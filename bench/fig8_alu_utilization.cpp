// Fig 8: ALU utilization (multiplier + adder busy cycles over total
// cycles). Paper shape: OP lowest (merge stalls + memory waits);
// HyMM highest (up to +27% over RWP, max on AC); CR/CS/PH lower for
// every architecture because of high feature sparsity and long
// feature vectors (W no longer fits the DMB).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = bench::init(argc, argv);
  bench::print_header("Utilization of ALU", "Fig 8");

  Table table({"Dataset", "OP", "RWP", "HyMM", "HyMM - RWP"});
  double best_gain = 0.0;
  std::string best_dataset;
  for (const DataflowComparison& cmp : bench::run_datasets(opts)) {
    const auto& op = cmp.by_flow(Dataflow::kOuterProduct);
    const auto& rwp = cmp.by_flow(Dataflow::kRowWiseProduct);
    const auto& hymm = cmp.by_flow(Dataflow::kHybrid);
    const double gain =
        hymm.stats.alu_utilization() - rwp.stats.alu_utilization();
    if (gain > best_gain) {
      best_gain = gain;
      best_dataset = cmp.spec.abbrev;
    }
    table.add_row({bench::scale_note(cmp),
                   Table::fmt_percent(op.stats.alu_utilization(), 1),
                   Table::fmt_percent(rwp.stats.alu_utilization(), 1),
                   Table::fmt_percent(hymm.stats.alu_utilization(), 1),
                   (gain >= 0 ? "+" : "") + Table::fmt(gain * 100, 1) +
                       "pp"});
  }
  table.print(std::cout);
  std::cout << "\nLargest HyMM utilization gain over RWP: +"
            << Table::fmt(best_gain * 100, 1) << "pp on " << best_dataset
            << " (paper: up to 27% on AC)\n";
  return 0;
}
