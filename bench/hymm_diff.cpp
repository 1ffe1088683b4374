// Run-diff gate and root-cause tool: compares two hymm-run-report/9
// documents (bench/perf_regression snapshots or hymm_sim --json
// reports) and attributes each paired run's cycle delta to
// (phase-or-region x stall bucket), printing a ranked attribution
// table. The per-phase stall vectors sum exactly to the per-phase
// cycles, so the rows sum exactly to the delta. When both reports
// carry the "spatial" tile grid at the same geometry, the tiles with
// the largest cycle deltas are ranked too.
//
//   hymm_diff BASELINE CURRENT [--max-rows N]
//
// Exit status, like diff(1): 0 when every baseline run has a partner
// in CURRENT and the two are equal in every (phase or region, stall)
// cell, in cycles and in DRAM bytes; 1 on any such delta, a baseline
// run missing from CURRENT, or a current run that failed
// verification; 2 on usage errors; 3 on an unreadable file, a schema
// other than hymm-run-report/9, a baseline without runs, or a result
// labeled "sampled": true (an estimate, not an exact run).
#include <algorithm>
#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "obs/diff.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  const auto usage = [] {
    std::cerr << "usage: hymm_diff BASELINE CURRENT [--max-rows N]\n";
    return 2;
  };
  std::size_t max_rows = 10;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-rows" && i + 1 < argc) {
      const std::string value = argv[++i];
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, max_rows);
      if (ec != std::errc() || ptr != end) {
        std::cerr << "hymm_diff: invalid value '" << value
                  << "' for --max-rows (want a non-negative integer)\n";
        return 2;
      }
    } else if (arg == "--version") {
      std::cout << "hymm_diff\n"
                << "  run-report schema: " << kRunReportSchema << '\n';
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();

  std::string error;
  const auto base = load_report(positional[0], &error);
  if (!base.has_value()) {
    std::cerr << "hymm_diff: " << error << "\n";
    return 3;
  }
  if (base->runs.empty()) {
    std::cerr << "hymm_diff: " << positional[0] << " has no runs\n";
    return 3;
  }
  const auto current = load_report(positional[1], &error);
  if (!current.has_value()) {
    std::cerr << "hymm_diff: " << error << "\n";
    return 3;
  }

  const std::vector<RunDiff> diffs = diff_reports(*base, *current);

  std::cout << "hymm_diff: " << positional[0] << " -> " << positional[1]
            << "\n";
  print_diff(diffs, std::cout, max_rows);
  const auto failed = std::count_if(
      diffs.begin(), diffs.end(),
      [](const RunDiff& diff) { return !diff.passes(); });
  if (failed > 0) {
    std::cerr << "hymm_diff: " << failed << " of " << diffs.size()
              << " baseline runs differ\n";
    return 1;
  }
  return 0;
}
