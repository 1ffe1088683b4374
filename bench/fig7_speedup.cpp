// Fig 7: end-to-end speedup of the RWP (GROW-like), OP (GCNAX-like)
// and HyMM dataflows on one GCN layer, normalized to OP — the
// paper's headline result (HyMM up to 4.78x over OP, max on AP; RWP
// roughly 2x over OP on average).
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = bench::init(argc, argv);
  bench::print_header("Speedup of HyMM and baseline dataflows", "Fig 7");

  Table table({"Dataset", "OP cycles", "RWP cycles", "HyMM cycles",
               "OP", "RWP", "HyMM", "verified"});
  double rwp_speedup_sum = 0.0;
  double best_hymm = 0.0;
  std::string best_dataset;
  std::size_t count = 0;
  for (const DataflowComparison& cmp : bench::run_datasets(opts)) {
    const auto& op = cmp.by_flow(Dataflow::kOuterProduct);
    const auto& rwp = cmp.by_flow(Dataflow::kRowWiseProduct);
    const auto& hymm = cmp.by_flow(Dataflow::kHybrid);
    const auto op_cycles = static_cast<double>(op.stats.cycles);
    const double rwp_speedup =
        op_cycles / static_cast<double>(rwp.stats.cycles);
    const double hymm_speedup =
        op_cycles / static_cast<double>(hymm.stats.cycles);
    rwp_speedup_sum += rwp_speedup;
    ++count;
    if (hymm_speedup > best_hymm) {
      best_hymm = hymm_speedup;
      best_dataset = cmp.spec.abbrev;
    }
    const bool verified = op.verified && rwp.verified && hymm.verified;
    table.add_row({bench::scale_note(cmp), std::to_string(op.stats.cycles),
                   std::to_string(rwp.stats.cycles),
                   std::to_string(hymm.stats.cycles),
                   "1.00x", Table::fmt(rwp_speedup, 2) + "x",
                   Table::fmt(hymm_speedup, 2) + "x",
                   verified ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nRWP speedup over OP, average: "
            << Table::fmt(rwp_speedup_sum / count, 2)
            << "x (paper: ~2x on average)\n"
            << "Best HyMM speedup over OP: " << Table::fmt(best_hymm, 2)
            << "x on " << best_dataset << " (paper: 4.78x on AP)\n";
  return 0;
}
