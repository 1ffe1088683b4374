// Table III: hardware parameters and estimated area (7 nm and scaled
// 40 nm), from the calibrated analytic area model.
#include <iostream>

#include "bench_common.hpp"
#include "model/area.hpp"

int main(int argc, char** argv) {
  using namespace hymm;
  (void)BenchOptions::from_env_and_args(argc, argv);
  bench::print_header("Hardware parameters and estimated area",
                      "Table III");

  const AcceleratorConfig config;
  const AreaReport report = estimate_area(config);
  Table table({"Component", "Configuration", "Area 7nm (mm^2)",
               "Area 40nm (mm^2)"});
  for (const ComponentArea& c : report.components) {
    table.add_row({c.name, c.configuration, Table::fmt(c.area_7nm_mm2, 3),
                   Table::fmt(c.area_40nm_mm2, 3)});
  }
  table.add_row({"Total", "-", Table::fmt(report.total_7nm_mm2, 3),
                 Table::fmt(report.total_40nm_mm2, 3)});
  table.print(std::cout);

  std::cout << "\nCompute: " << config.pe_count << " PEs @ "
            << config.clock_ghz << " GHz = " << config.gflops()
            << " GFLOPS (paper: 32 GFLOPS)\n";
  std::cout << "Baseline totals at 40nm (paper, Section V): GCNAX "
            << kGcnaxArea40nm << " mm^2, GROW " << kGrowArea40nm
            << " mm^2; HyMM sits between them: "
            << (report.total_40nm_mm2 < kGcnaxArea40nm &&
                        report.total_40nm_mm2 > kGrowArea40nm
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}
