// Table II: graph dataset statistics and degree-sorting cost.
//
// Prints the paper's columns for each synthetic workload (node and
// edge counts, adjacency/feature sparsity, feature length, layer
// dimension) plus the measured wall-clock degree-sorting cost.
#include <iostream>

#include "bench_common.hpp"
#include "graph/degree_sort.hpp"
#include "graph/generator.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Graph datasets", "Table II");

  Table table({"Dataset", "Nodes", "Edges", "Adj sparsity", "Feat sparsity",
               "Feat len", "Layer dim", "Top-20% edge share",
               "Sort cost (ms)"});
  for (const DatasetSpec& spec : opts.datasets) {
    const double scale = opts.scale_for(spec);
    const GcnWorkload w = build_workload(spec, scale);
    const DegreeSortResult sorted = degree_sort(w.adjacency);
    const double adj_sparsity =
        1.0 - static_cast<double>(w.adjacency.nnz()) /
                  (static_cast<double>(w.spec.nodes) * w.spec.nodes);
    const double feat_sparsity =
        1.0 - static_cast<double>(w.features.nnz()) /
                  (static_cast<double>(w.spec.nodes) *
                   w.spec.feature_length);
    std::string name = spec.name + " (" + spec.abbrev + ")";
    if (scale != 1.0) name += " x" + Table::fmt(scale, 2);
    table.add_row({name, std::to_string(w.spec.nodes),
                   std::to_string(w.adjacency.nnz()),
                   Table::fmt_percent(adj_sparsity, 2),
                   Table::fmt_percent(feat_sparsity, 2),
                   std::to_string(w.spec.feature_length),
                   std::to_string(w.spec.layer_dim),
                   Table::fmt_percent(
                       top_degree_edge_share(w.adjacency, 0.20), 1),
                   Table::fmt(sorted.sort_cost_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "\nPaper sorting costs (full-size, authors' host): CR 0.58, "
               "AP 2.62, AC 5.96, CS 3.42, PH 6.80, FR 15.12, YP 215.93 ms\n";
  return 0;
}
