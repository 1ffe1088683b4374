// Fig 11: DRAM access breakdown by traffic class for each dataflow.
// Paper shape: HyMM cuts total off-chip accesses by ~91% on AP and
// ~89% on AC relative to the outer product, mostly by eliminating
// partial-output spill/readback traffic.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = bench::init(argc, argv);
  bench::print_header("DRAM access breakdown", "Fig 11");

  Table table({"Dataset", "Flow", "adjacency", "features", "weights", "XW",
               "AXW", "partial", "total", "vs OP"});
  for (const DataflowComparison& cmp : bench::run_datasets(opts)) {
    const auto& op = cmp.by_flow(Dataflow::kOuterProduct);
    for (const ExperimentResult& r : cmp.results) {
      std::vector<std::string> row = {bench::scale_note(cmp),
                                      to_string(r.flow)};
      for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
        row.push_back(Table::fmt_bytes(static_cast<double>(
            r.stats.dram_read_bytes[c] + r.stats.dram_write_bytes[c])));
      }
      row.push_back(
          Table::fmt_bytes(static_cast<double>(r.stats.dram_total_bytes())));
      row.push_back(Table::fmt_percent(
          1.0 - static_cast<double>(r.stats.dram_total_bytes()) /
                    static_cast<double>(op.stats.dram_total_bytes()),
          1));
      table.add_row(std::move(row));
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper: HyMM reduces off-chip accesses by 91% (AP) and "
               "89% (AC) versus the outer product.\n";
  return 0;
}
