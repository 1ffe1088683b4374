// Fig 2: graph degree distribution. The paper's observation: "the
// top 20% of high-degree nodes account for more than 70% of the
// total edge count". Prints the cumulative edge share held by the
// top-k% of nodes for each workload, and the degree-sorted region
// boundaries the observation motivates.
#include <algorithm>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "graph/degree_sort.hpp"
#include "graph/generator.hpp"
#include "graph/partition.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Graph degree distribution", "Fig 2");

  const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.20,
                                         0.40, 0.60, 0.80};
  std::vector<std::string> header = {"Dataset"};
  for (const double f : fractions) {
    header.push_back("top " + Table::fmt(f * 100, 0) + "%");
  }
  header.push_back("max degree");
  header.push_back("avg degree");

  Table table(header);
  bool all_hold = true;
  for (const DatasetSpec& spec : opts.datasets) {
    const GcnWorkload w = build_workload(spec, opts.scale_for(spec));
    std::vector<std::string> row = {spec.abbrev};
    for (const double f : fractions) {
      row.push_back(
          Table::fmt_percent(top_degree_edge_share(w.adjacency, f), 1));
    }
    EdgeCount max_degree = 0;
    for (NodeId r = 0; r < w.adjacency.rows(); ++r) {
      max_degree = std::max(max_degree, w.adjacency.row_nnz(r));
    }
    row.push_back(std::to_string(max_degree));
    row.push_back(Table::fmt(static_cast<double>(w.adjacency.nnz()) /
                                 w.adjacency.rows(),
                             1));
    table.add_row(std::move(row));
    if (top_degree_edge_share(w.adjacency, 0.20) <= 0.70 &&
        w.scale == 1.0) {
      all_hold = false;
    }
  }
  table.print(std::cout);

  std::cout << "\nPaper observation (Fig 2): top 20% of nodes hold >70% of "
               "edges — holds on all full-size workloads: "
            << (all_hold ? "yes" : "NO") << "\n";

  // Fig 2b: the degree-sorted view and the region boundaries HyMM
  // tiles against.
  std::cout << "\nDegree-sorted region boundaries (Section III / Fig 2b):\n";
  Table regions({"Dataset", "Region-1 rows", "Region-2 cols", "nnz R1",
                 "nnz R2", "nnz R3"});
  const AcceleratorConfig config;
  for (const DatasetSpec& spec : opts.datasets) {
    const GcnWorkload w = build_workload(spec, opts.scale_for(spec));
    const CsrMatrix sorted = degree_sort(w.adjacency).sorted;
    const RegionPartition p = partition_regions(sorted, config);
    regions.add_row(
        {spec.abbrev, std::to_string(p.region1_rows),
         std::to_string(p.region2_cols),
         Table::fmt_percent(static_cast<double>(p.nnz_region1) /
                            p.total_nnz()),
         Table::fmt_percent(static_cast<double>(p.nnz_region2) /
                            p.total_nnz()),
         Table::fmt_percent(static_cast<double>(p.nnz_region3) /
                            p.total_nnz())});
  }
  regions.print(std::cout);
  return 0;
}
