// Ablation: graph-reordering study (Section II-C and the paper's
// [25]). Runs the RWP baseline on the same workload under four node
// orderings — generator order, random shuffle, BFS renumbering and
// full degree sorting — and contrasts with HyMM (which always sorts
// internally). Shows how much of HyMM's win is the ordering itself
// versus the hybrid dataflow on top of it.
#include <iostream>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "graph/degree_sort.hpp"
#include "linalg/gcn.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Graph-reordering study (RWP baseline)",
                      "Section II-C context (graph preprocessing)");

  // Only the two datasets the paper highlights unless filtered.
  if (!opts.datasets_explicit) {
    opts.datasets = {*find_dataset("AP"), *find_dataset("AC")};
  }
  const Accelerator accelerator{AcceleratorConfig{}};
  Table table({"Dataset", "Ordering", "Cycles", "Agg cycles",
               "DMB hit rate", "DRAM"});
  for (const DatasetSpec& spec : opts.datasets) {
    const GcnWorkload workload =
        build_workload(spec, opts.scale_for(spec));
    const CsrMatrix a_hat = normalize_adjacency(workload.adjacency);
    const DenseMatrix weights = DenseMatrix::random(
        workload.spec.feature_length, workload.spec.layer_dim, 49);

    struct Ordering {
      const char* name;
      std::vector<NodeId> perm;  // empty = identity
    };
    std::vector<Ordering> orderings;
    orderings.push_back({"as-generated", {}});
    orderings.push_back(
        {"random", random_permutation_of(a_hat.rows(), 99)});
    orderings.push_back({"BFS", bfs_permutation(a_hat)});
    orderings.push_back({"degree-sorted", degree_sort_permutation(a_hat)});

    for (const Ordering& ordering : orderings) {
      CsrMatrix a = a_hat;
      CsrMatrix x = workload.features;
      if (!ordering.perm.empty()) {
        a = a_hat.permute_symmetric(ordering.perm);
        x = permute_feature_rows(workload.features, ordering.perm);
      }
      const LayerRunResult r =
          accelerator.run_layer(Dataflow::kRowWiseProduct, a, x, weights);
      table.add_row({bench::scale_note(
                         DataflowComparison{workload.spec, workload.scale,
                                            {}}),
                     ordering.name, std::to_string(r.stats.cycles),
                     std::to_string(r.aggregation_stats.cycles),
                     Table::fmt_percent(r.stats.dmb_hit_rate(), 1),
                     Table::fmt_bytes(static_cast<double>(
                         r.stats.dram_total_bytes()))});
    }
    // The hybrid for reference (sorts internally).
    const LayerRunResult hymm = accelerator.run_layer(
        Dataflow::kHybrid, a_hat, workload.features, weights);
    table.add_row({bench::scale_note(
                       DataflowComparison{workload.spec, workload.scale,
                                          {}}),
                   "HyMM (hybrid)", std::to_string(hymm.stats.cycles),
                   std::to_string(hymm.aggregation_stats.cycles),
                   Table::fmt_percent(hymm.stats.dmb_hit_rate(), 1),
                   Table::fmt_bytes(static_cast<double>(
                       hymm.stats.dram_total_bytes()))});
  }
  table.print(std::cout);
  std::cout << "\nReading: reordering alone barely moves the homogeneous "
               "RWP baseline (echoing the paper's [25] — lightweight "
               "reordering is not automatically an optimization); HyMM's "
               "gain comes from the hybrid dataflow *exploiting* the "
               "sorted structure (pinned OP region + hot-column RWP "
               "region), not from the node order per se.\n";
  return 0;
}
