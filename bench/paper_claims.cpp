// The paper's headline evaluation from one simulated grid: every
// selected dataset under OP (GCNAX-like), RWP (GROW-like) and HyMM,
// printed as Fig 7 (speedup), Fig 8 (ALU utilization), Fig 9 (DMB hit
// rate) and Fig 11 (DRAM breakdown), then one verdict per paper claim
// (core/paper_claims.hpp).
#include <iostream>

#include "bench_common.hpp"
#include "core/paper_claims.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv);
  const std::vector<DataflowComparison> grid = bench::run_datasets(opts);
  const Dataflow flows[] = {Dataflow::kOuterProduct,
                            Dataflow::kRowWiseProduct, Dataflow::kHybrid};
  const auto percent = [](double v) { return Table::fmt_percent(v, 1); };

  Table speedup({"Dataset", "OP cycles", "RWP cycles", "HyMM cycles", "OP",
                 "RWP", "HyMM", "verified"});
  Table utilization({"Dataset", "OP", "RWP", "HyMM", "HyMM - RWP"});
  Table hit_rate({"Dataset", "OP", "RWP", "HyMM"});
  Table dram({"Dataset", "Flow", "adjacency", "features", "weights", "XW",
              "AXW", "partial", "total", "vs OP"});
  for (const DataflowComparison& cmp : grid) {
    const std::string name = bench::scale_note(cmp);
    std::vector<std::string> fig7 = {name}, fig8 = {name}, fig9 = {name};
    const SimStats& op = cmp.by_flow(Dataflow::kOuterProduct).stats;
    bool verified = true;
    for (const Dataflow flow : flows) {
      const ExperimentResult& r = cmp.by_flow(flow);
      fig7.push_back(std::to_string(r.stats.cycles));
      fig8.push_back(percent(r.stats.alu_utilization()));
      fig9.push_back(percent(r.stats.dmb_hit_rate()));
      verified = verified && r.verified;

      std::vector<std::string> fig11 = {name, to_string(flow)};
      for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
        fig11.push_back(Table::fmt_bytes(static_cast<double>(
            r.stats.dram_read_bytes[c] + r.stats.dram_write_bytes[c])));
      }
      const auto bytes = static_cast<double>(r.stats.dram_total_bytes());
      fig11.push_back(Table::fmt_bytes(bytes));
      fig11.push_back(percent(
          1.0 - bytes / static_cast<double>(op.dram_total_bytes())));
      dram.add_row(std::move(fig11));
    }
    for (const Dataflow flow : flows) {
      fig7.push_back(Table::fmt(static_cast<double>(op.cycles) /
                                    static_cast<double>(
                                        cmp.by_flow(flow).stats.cycles),
                                2) + "x");
    }
    fig7.push_back(verified ? "yes" : "NO");
    const double gain =
        cmp.by_flow(Dataflow::kHybrid).stats.alu_utilization() -
        cmp.by_flow(Dataflow::kRowWiseProduct).stats.alu_utilization();
    std::string gain_pp(gain >= 0 ? "+" : "");
    fig8.push_back(gain_pp.append(Table::fmt(gain * 100, 1)).append("pp"));
    speedup.add_row(std::move(fig7));
    utilization.add_row(std::move(fig8));
    hit_rate.add_row(std::move(fig9));
  }

  Table verdicts({"Figure", "Claim", "Paper", "Measured", "Tolerance",
                  "Holds"});
  for (const PaperVerdict& v : paper_verdicts(grid)) {
    verdicts.add_row({v.figure, v.claim, v.paper, v.measured, v.tolerance,
                      v.holds ? "yes" : "NO"});
  }
  const auto print = [](const std::string& title, const std::string& figure,
                        const Table& table) {
    bench::print_header(title, figure);
    table.print(std::cout);
    std::cout << "\n";
  };
  print("Speedup of HyMM and baseline dataflows", "Fig 7", speedup);
  print("Utilization of ALU", "Fig 8", utilization);
  print("Hit ratio of dense matrix buffer", "Fig 9", hit_rate);
  print("DRAM access breakdown", "Fig 11", dram);
  print("Paper claims", "Fig 7, Fig 8, Fig 9, Fig 11", verdicts);
  return 0;
}
