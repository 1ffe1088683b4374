// paper_verdicts on hand-built grids, no simulation: each claim holds
// inside its tolerance, breaks just past it, and names the dataset its
// measured value comes from.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/paper_claims.hpp"

namespace hymm {
namespace {

// One dataset's OP / RWP / HyMM measurements. The defaults sit on the
// paper's numbers: HyMM 4.78x and RWP 2x over OP, HyMM +27pp ALU
// utilization over RWP, a 91% DRAM cut vs OP.
struct Point {
  std::string abbrev = "AP";
  Cycle op_cycles = 4780000, rwp_cycles = 2390000, hymm_cycles = 1000000;
  double op_util = 0.50, rwp_util = 0.70, hymm_util = 0.97;
  double op_hit = 0.60, rwp_hit = 0.70, hymm_hit = 0.90;
  std::uint64_t op_dram = 100000, rwp_dram = 20000, hymm_dram = 9000;
  bool hymm_verified = true;
};

DataflowComparison comparison(const Point& p) {
  DataflowComparison cmp;
  cmp.spec.abbrev = p.abbrev;
  const auto add = [&cmp](Dataflow flow, Cycle cycles, double util,
                          double hit, std::uint64_t dram, bool verified) {
    ExperimentResult& r = cmp.results.emplace_back();
    r.flow = flow;
    r.verified = verified;
    r.stats.cycles = cycles;
    r.stats.alu_busy_cycles = std::llround(util * static_cast<double>(cycles));
    r.stats.dmb_read_hits = std::llround(hit * 1000);
    r.stats.dmb_read_misses = 1000 - r.stats.dmb_read_hits;
    r.stats.dram_read_bytes[0] = dram;
  };
  add(Dataflow::kOuterProduct, p.op_cycles, p.op_util, p.op_hit, p.op_dram,
      true);
  add(Dataflow::kRowWiseProduct, p.rwp_cycles, p.rwp_util, p.rwp_hit,
      p.rwp_dram, true);
  add(Dataflow::kHybrid, p.hymm_cycles, p.hymm_util, p.hymm_hit, p.hymm_dram,
      p.hymm_verified);
  return cmp;
}

// AP at the defaults, AC with an 89% DRAM cut, and CR (2x speedups,
// +10pp utilization gain) after `tweak`.
std::vector<DataflowComparison> grid(
    const std::function<void(Point&)>& tweak = [](Point&) {}) {
  Point cr{.abbrev = "CR", .op_cycles = 2000000, .rwp_cycles = 1000000,
           .hymm_util = 0.80};
  tweak(cr);
  return {comparison({}), comparison({.abbrev = "AC", .hymm_dram = 11000}),
          comparison(cr)};
}

PaperVerdict verdict(const std::vector<DataflowComparison>& g,
                     const std::string& claim) {
  for (const PaperVerdict& v : paper_verdicts(g)) {
    if (v.claim == claim) return v;
  }
  ADD_FAILURE() << "no verdict row '" << claim << "'";
  return {};
}

TEST(PaperVerdicts, EveryClaimHoldsAtThePapersNumbers) {
  const std::vector<PaperVerdict> rows = paper_verdicts(grid());
  const std::vector<std::string> figures = {
      "Fig 7", "Fig 7", "Fig 7",  "Fig 7",  "Fig 8",  "Fig 8", "Fig 8",
      "Fig 9", "Fig 9", "Fig 11", "Fig 11", "Fig 11", "All"};
  ASSERT_EQ(rows.size(), figures.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].figure, figures[i]) << rows[i].claim;
    EXPECT_TRUE(rows[i].holds) << rows[i].claim << ": " << rows[i].measured;
  }
  EXPECT_EQ(verdict(grid(), "HyMM cycles <= RWP").measured,
            "holds on 3 datasets");
  // Without AP and AC the per-dataset DRAM-cut rows drop out.
  EXPECT_EQ(paper_verdicts({comparison({.abbrev = "CR"})}).size(), 11u);
}

// One claim, edited on CR: `inside` keeps it, `past` crosses its
// tolerance by the smallest step its printed value shows, and the
// failing row reads `measured`.
struct Case {
  std::string claim;
  std::function<void(Point&)> inside, past;
  std::string measured;
};

TEST(PaperVerdicts, EachClaimBreaksJustPastItsTolerance) {
  const auto speedup = [](double s) {  // CR's HyMM speedup over OP
    return [s](Point& p) { p.op_cycles = std::llround(s * 1e6); };
  };
  const auto rwp_mean = [](double m) {  // AP and AC sit at 2x
    return [m](Point& p) { p.rwp_cycles = std::llround(2e6 / (3 * m - 4)); };
  };
  const auto gain = [](double pp) {
    return [pp](Point& p) {
      p.rwp_util = 0.60;
      p.hymm_util = 0.60 + pp / 100;
    };
  };
  const std::vector<Case> cases = {
      {"HyMM cycles <= RWP", [](Point&) {},
       [](Point& p) { p.hymm_cycles = p.rwp_cycles + 1; },
       "fails on CR 1000001 vs 1000000"},
      {"HyMM cycles < OP", [](Point& p) { p.op_cycles = 1000001; },
       [](Point& p) { p.op_cycles = 1000000; },
       "fails on CR 1000000 vs 1000000"},
      {"max HyMM speedup over OP", speedup(5.97), speedup(5.98),
       "5.98x on CR"},
      {"mean RWP speedup over OP", rwp_mean(2.49), rwp_mean(2.51),
       "2.51x over 3 datasets"},
      {"OP ALU utilization < RWP", [](Point& p) { p.op_util = 0.699; },
       [](Point& p) { p.op_util = 0.70; }, "fails on CR 70.0% vs 70.0%"},
      {"OP ALU utilization < HyMM", [](Point& p) { p.op_util = 0.799; },
       [](Point& p) { p.op_util = 0.80; }, "fails on CR 80.0% vs 80.0%"},
      {"max HyMM - RWP ALU utilization", gain(33.7), gain(33.8),
       "+33.8pp on CR"},
      {"HyMM DMB hit rate > OP", [](Point& p) { p.op_hit = 0.899; },
       [](Point& p) { p.op_hit = 0.90; }, "fails on CR 90.0% vs 90.0%"},
      {"HyMM DMB hit rate > RWP", [](Point& p) { p.rwp_hit = 0.899; },
       [](Point& p) { p.rwp_hit = 0.90; }, "fails on CR 90.0% vs 90.0%"},
      {"HyMM DRAM bytes <= RWP", [](Point& p) { p.hymm_dram = p.rwp_dram; },
       [](Point& p) { p.hymm_dram = p.rwp_dram + 4096; },
       "fails on CR 23.53KB vs 19.53KB"},
      {"every run verified", [](Point&) {},
       [](Point& p) { p.hymm_verified = false; }, "fails on CR/HyMM"}};
  for (const Case& c : cases) {
    const PaperVerdict inside = verdict(grid(c.inside), c.claim);
    EXPECT_TRUE(inside.holds) << c.claim << ": " << inside.measured;
    const PaperVerdict past = verdict(grid(c.past), c.claim);
    EXPECT_FALSE(past.holds) << c.claim;
    EXPECT_EQ(past.measured, c.measured) << c.claim;
  }
}

TEST(PaperVerdicts, DramCutBreaksJustPastItsTolerance) {
  // 91% less 25% of 91% leaves a 68.25% cut on AP.
  const std::string claim = "HyMM DRAM cut vs OP on AP";
  EXPECT_TRUE(verdict({comparison({.hymm_dram = 31000})}, claim).holds);
  const PaperVerdict past = verdict({comparison({.hymm_dram = 32000})}, claim);
  EXPECT_FALSE(past.holds);
  EXPECT_EQ(past.measured, "68.0% on AP");
}

TEST(PaperVerdicts, OrderingNamesEveryOffendingDataset) {
  const PaperVerdict v = verdict(
      {comparison({.abbrev = "CS", .op_util = 0.98}), comparison({}),
       comparison({.abbrev = "PH", .op_util = 0.75})},
      "OP ALU utilization < RWP");
  EXPECT_EQ(v.measured, "fails on CS 98.0% vs 70.0%; PH 75.0% vs 70.0%");
}

}  // namespace
}  // namespace hymm
