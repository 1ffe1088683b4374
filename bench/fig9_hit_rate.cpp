// Fig 9: hit ratio of the dense matrix buffer — the share of
// read/accumulate lookups whose target line is on-chip. Paper shape:
// both homogeneous dataflows sit low; HyMM is markedly higher
// because sorting confines the hot XW/AXW address ranges.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = bench::init(argc, argv);
  bench::print_header("Hit ratio of dense matrix buffer", "Fig 9");

  Table table({"Dataset", "OP", "RWP", "HyMM"});
  for (const DataflowComparison& cmp : bench::run_datasets(opts)) {
    const auto hit_rate = [&cmp](Dataflow flow) {
      return Table::fmt_percent(cmp.by_flow(flow).stats.dmb_hit_rate(), 1);
    };
    table.add_row({bench::scale_note(cmp),
                   hit_rate(Dataflow::kOuterProduct),
                   hit_rate(Dataflow::kRowWiseProduct),
                   hit_rate(Dataflow::kHybrid)});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: HyMM's hit rate exceeds both baselines on "
               "every dataset (clustered address ranges + near-DMB "
               "accumulator).\n";
  return 0;
}
