#include "core/paper_claims.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/table.hpp"

namespace hymm {

namespace {

// The paper's numbers. Each magnitude holds when the measurement lies
// within kMagnitudeTolerance of it, relative: the workloads match
// Table II's statistics, not the PyG graphs themselves, so a magnitude
// is checked as "roughly the paper's factor".
constexpr double kMaxHymmSpeedupVsOp = 4.78;  // Fig 7, on AP
constexpr double kMeanRwpSpeedupVsOp = 2.0;   // Fig 7, "about 2x" on average
constexpr double kMaxUtilGainPp = 27.0;       // Fig 8, HyMM - RWP, on AC
constexpr double kDramCutAp = 0.91;           // Fig 11, HyMM vs OP
constexpr double kDramCutAc = 0.89;           // Fig 11, HyMM vs OP
constexpr double kMagnitudeTolerance = 0.25;

constexpr Dataflow kOp = Dataflow::kOuterProduct;
constexpr Dataflow kRwp = Dataflow::kRowWiseProduct;
constexpr Dataflow kHymm = Dataflow::kHybrid;

using Grid = std::vector<DataflowComparison>;

const SimStats& stats(const DataflowComparison& cmp, Dataflow flow) {
  return cmp.by_flow(flow).stats;
}

std::string count(std::size_t n, const std::string& noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}
std::string percent(double v) { return Table::fmt_percent(v, 1); }
std::string bytes(double v) { return Table::fmt_bytes(v); }

// A per-run metric that an ordering compares between two flows.
struct Metric {
  const char* name;
  double (*value)(const SimStats&);
  std::string (*format)(double);
};
const Metric kCycles{
    "cycles", [](const SimStats& s) { return static_cast<double>(s.cycles); },
    [](double v) { return Table::fmt(v, 0); }};
const Metric kAluUtil{
    "ALU utilization",
    [](const SimStats& s) { return s.alu_utilization(); }, percent};
const Metric kHitRate{
    "DMB hit rate", [](const SimStats& s) { return s.dmb_hit_rate(); },
    percent};
const Metric kDramBytes{
    "DRAM bytes",
    [](const SimStats& s) { return static_cast<double>(s.dram_total_bytes()); },
    bytes};

// "<a> <metric> <relation> <b>" on every dataset, exactly. A failing row
// lists each offending dataset with both values.
PaperVerdict ordering(const char* figure, const Grid& grid, const Metric& m,
                      Dataflow a, const std::string& relation, Dataflow b) {
  std::string offenders;
  for (const DataflowComparison& cmp : grid) {
    const double x = m.value(stats(cmp, a));
    const double y = m.value(stats(cmp, b));
    if (relation == "<" ? x < y : relation == "<=" ? x <= y : x > y) continue;
    offenders += (offenders.empty() ? "" : "; ") + cmp.spec.abbrev + " " +
                 m.format(x) + " vs " + m.format(y);
  }
  return {figure, to_string(a) + " " + m.name + " " + relation + " " +
                      to_string(b),
          "every dataset",
          offenders.empty() ? "holds on " + count(grid.size(), "dataset")
                            : "fails on " + offenders,
          "exact", offenders.empty()};
}

PaperVerdict magnitude(const char* figure, std::string claim, double paper,
                       std::string paper_text, double measured,
                       std::string measured_text) {
  return {figure, std::move(claim), std::move(paper_text),
          std::move(measured_text),
          "+/-" + Table::fmt(kMagnitudeTolerance * 100, 0) + "%",
          std::abs(measured - paper) <= kMagnitudeTolerance * paper};
}

}  // namespace

std::vector<PaperVerdict> paper_verdicts(const Grid& grid) {
  HYMM_CHECK_MSG(!grid.empty(), "paper_verdicts needs at least one dataset");
  const auto speedup = [](const DataflowComparison& cmp, Dataflow flow) {
    return kCycles.value(stats(cmp, kOp)) / kCycles.value(stats(cmp, flow));
  };
  const auto util_gain_pp = [](const DataflowComparison& cmp) {
    return 100 * (stats(cmp, kHymm).alu_utilization() -
                  stats(cmp, kRwp).alu_utilization());
  };
  // The first dataset with the largest `value`, and that value.
  const auto argmax = [&grid](auto value) {
    const DataflowComparison& best = *std::max_element(
        grid.begin(), grid.end(),
        [&value](const auto& x, const auto& y) { return value(x) < value(y); });
    return std::pair<double, std::string>{value(best), best.spec.abbrev};
  };
  double rwp_sum = 0.0;
  for (const DataflowComparison& cmp : grid) rwp_sum += speedup(cmp, kRwp);
  const double rwp_mean = rwp_sum / static_cast<double>(grid.size());
  const auto [fastest, fastest_on] =
      argmax([&speedup](const auto& cmp) { return speedup(cmp, kHymm); });
  const auto [widest, widest_on] = argmax(util_gain_pp);
  const auto pp = [](double v) {
    std::string text(v >= 0 ? "+" : "");
    return text.append(Table::fmt(v, 1)).append("pp");
  };

  std::vector<PaperVerdict> rows = {
      ordering("Fig 7", grid, kCycles, kHymm, "<=", kRwp),
      ordering("Fig 7", grid, kCycles, kHymm, "<", kOp),
      magnitude("Fig 7", "max HyMM speedup over OP", kMaxHymmSpeedupVsOp,
                Table::fmt(kMaxHymmSpeedupVsOp, 2) + "x on AP", fastest,
                Table::fmt(fastest, 2) + "x on " + fastest_on),
      magnitude("Fig 7", "mean RWP speedup over OP", kMeanRwpSpeedupVsOp,
                Table::fmt(kMeanRwpSpeedupVsOp, 0) + "x", rwp_mean,
                Table::fmt(rwp_mean, 2) + "x over " +
                    count(grid.size(), "dataset")),
      ordering("Fig 8", grid, kAluUtil, kOp, "<", kRwp),
      ordering("Fig 8", grid, kAluUtil, kOp, "<", kHymm),
      magnitude("Fig 8", "max HyMM - RWP ALU utilization", kMaxUtilGainPp,
                pp(kMaxUtilGainPp) + " on AC", widest,
                pp(widest) + " on " + widest_on),
      ordering("Fig 9", grid, kHitRate, kHymm, ">", kOp),
      ordering("Fig 9", grid, kHitRate, kHymm, ">", kRwp)};
  for (const auto& [abbrev, paper] :
       {std::pair{"AP", kDramCutAp}, std::pair{"AC", kDramCutAc}}) {
    for (const DataflowComparison& cmp : grid) {
      if (cmp.spec.abbrev != abbrev) continue;
      const double cut = 1.0 - kDramBytes.value(stats(cmp, kHymm)) /
                                   kDramBytes.value(stats(cmp, kOp));
      rows.push_back(magnitude(
          "Fig 11", "HyMM DRAM cut vs OP on " + cmp.spec.abbrev, paper,
          Table::fmt_percent(paper, 0), cut, percent(cut) + " on " + abbrev));
    }
  }
  rows.push_back(ordering("Fig 11", grid, kDramBytes, kHymm, "<=", kRwp));

  std::string unverified;
  std::size_t runs = 0;
  for (const DataflowComparison& cmp : grid) {
    for (const ExperimentResult& r : cmp.results) {
      ++runs;
      if (r.verified) continue;
      unverified += (unverified.empty() ? "" : ", ") + cmp.spec.abbrev + "/" +
                    to_string(r.flow);
    }
  }
  rows.push_back({"All", "every run verified", "every run",
                  unverified.empty() ? count(runs, "run") + " verified"
                                     : "fails on " + unverified,
                  "exact", unverified.empty()});
  return rows;
}

}  // namespace hymm
