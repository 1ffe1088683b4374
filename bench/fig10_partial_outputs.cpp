// Fig 10: memory footprint of partial outputs. Without a near-memory
// accumulator the outer product's unmerged partial records frequently
// exceed the DMB capacity and flood DRAM; HyMM's accumulator plus
// region-1 tiling bound the live partial state to the pinned rows
// (paper: up to 85% reduction on AP). The footprint over time is the
// observer's time series, sampled every 256 cycles unless
// --timeseries / HYMM_TIMESERIES sets another interval.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

namespace {

// Share of the time-series samples whose partial footprint is
// strictly above `bytes`; 0 for an empty series.
double fraction_above(const hymm::TimeSeriesData& ts, std::uint64_t bytes) {
  if (ts.empty()) return 0.0;
  const auto above = std::count_if(
      ts.samples.begin(), ts.samples.end(),
      [bytes](const hymm::TimeSeriesSample& s) {
        return s.partial_bytes > bytes;
      });
  return static_cast<double>(above) /
         static_cast<double>(ts.samples.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hymm;
  BenchOptions opts = bench::init(argc, argv);
  if (opts.sample > 0.0) {
    std::cerr << "--sample / HYMM_SAMPLE cannot be combined with "
                 "fig10_partial_outputs: a sampled run records no "
                 "footprint time series\n";
    return 2;
  }
  if (opts.timeseries_interval == 0) opts.timeseries_interval = 256;
  bench::print_header("Memory usage by partial outputs", "Fig 10");

  const AcceleratorConfig config;
  Table table({"Dataset", "OP w/o accumulator", "HyMM", "Reduction",
               "OP time above DMB", "HyMM time above DMB"});
  std::vector<std::pair<std::string, const ExperimentResult>> sparks;
  for (const DataflowComparison& cmp : bench::run_datasets(
           opts, config, {Dataflow::kOuterProduct, Dataflow::kHybrid})) {
    const auto& op = cmp.by_flow(Dataflow::kOuterProduct);
    const auto& hymm = cmp.by_flow(Dataflow::kHybrid);
    const std::uint64_t op_peak = op.stats.partial_bytes_peak;
    const std::uint64_t hymm_peak = hymm.stats.partial_bytes_peak;
    const double reduction =
        op_peak == 0 ? 0.0
                     : 1.0 - static_cast<double>(hymm_peak) /
                                 static_cast<double>(op_peak);
    table.add_row(
        {bench::scale_note(cmp),
         Table::fmt_bytes(static_cast<double>(op_peak)),
         Table::fmt_bytes(static_cast<double>(hymm_peak)),
         Table::fmt_percent(reduction, 1),
         Table::fmt_percent(fraction_above(op.timeseries, config.dmb_bytes),
                            1),
         Table::fmt_percent(
             fraction_above(hymm.timeseries, config.dmb_bytes), 1)});
    sparks.emplace_back(cmp.spec.abbrev + "/OP  ", op);
    sparks.emplace_back(cmp.spec.abbrev + "/HyMM", hymm);
  }
  table.print(std::cout);

  // Footprint-over-time sparklines (the actual shape of Fig 10; one
  // column per time-series sample bucket, scaled to each run's peak).
  std::cout << "\nFootprint over time (each line scaled to its own peak; "
               "'#' marks samples above the 256KB DMB):\n";
  for (const auto& [label, r] : sparks) {
    const std::vector<TimeSeriesSample>& samples = r.timeseries.samples;
    if (samples.empty()) continue;
    const std::uint64_t peak = r.stats.partial_bytes_peak;
    static const char* kLevels = " .:-=+*%@";
    std::string line;
    const std::size_t buckets = 60;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t idx = b * samples.size() / buckets;
      const std::uint64_t v = samples[idx].partial_bytes;
      if (v > config.dmb_bytes) {
        line += '#';
      } else if (peak == 0) {
        line += ' ';
      } else {
        const auto level = static_cast<std::size_t>(
            8.0 * static_cast<double>(v) / static_cast<double>(peak));
        line += kLevels[std::min<std::size_t>(level, 8)];
      }
    }
    std::cout << "  " << label << " |" << line << "| peak "
              << Table::fmt_bytes(static_cast<double>(peak)) << "\n";
  }
  std::cout << "\nPaper shape: without the accumulator the footprint "
               "frequently exceeds the DMB capacity; HyMM reduces it by "
               ">=85% (paper's max on AP). HyMM's peak is bounded by the "
               "pinned region-1 rows.\n";
  return 0;
}
