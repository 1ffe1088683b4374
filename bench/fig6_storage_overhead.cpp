// Fig 6: storage usage of the adjacency matrix — flat CSR/CSC versus
// HyMM's tiled format (CSC for region 1, CSR for the rest). The
// paper reports +10.2% for Cora and a decreasing overhead for larger
// graphs.
#include <iostream>

#include "bench_common.hpp"
#include "graph/degree_sort.hpp"
#include "graph/partition.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Storage usage of the adjacency matrix", "Fig 6");

  const AcceleratorConfig config;
  Table table({"Dataset", "Flat CSR", "HyMM tiled", "Overhead",
               "Avg degree"});
  for (const DatasetSpec& spec : opts.datasets) {
    const GcnWorkload w = build_workload(spec, opts.scale_for(spec));
    const CsrMatrix sorted = degree_sort(w.adjacency).sorted;
    const RegionPartition partition = partition_regions(sorted, config);
    const TiledAdjacency tiled = TiledAdjacency::build(sorted, partition);
    table.add_row(
        {bench::scale_note(
             DataflowComparison{w.spec, w.scale, {}}),
         Table::fmt_bytes(static_cast<double>(sorted.storage_bytes())),
         Table::fmt_bytes(static_cast<double>(tiled.storage_bytes())),
         Table::fmt_percent(tiled_storage_overhead(sorted, partition), 1),
         Table::fmt(static_cast<double>(sorted.nnz()) / sorted.rows(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: Cora overhead 10.2%; overhead decreases as graphs "
               "grow denser (the duplicated pointer arrays amortize over "
               "more non-zeros).\n";
  return 0;
}
