// hymm_diff root-cause engine and gate suite (obs/diff.hpp): run-report
// normalization, the exact-attribution guarantee (rows sum to the
// cycle delta with no residual), the headline acceptance criterion —
// an injected single-bucket stall delta is attributed to the right
// (phase, bucket) with >= 90% share — and the exact gate (any cell,
// cycle or DRAM-byte delta, a missing partner or an unverified exact
// run fails).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace hymm {
namespace {

// A minimal hymm-run-report/9 snapshot: one CR/HyMM run whose phase
// stall vectors are fully spelled out so tests can inject precise
// deltas.
struct RunFields {
  double agg_dram_latency = 30000.0;
  double comb_compute = 90000.0;
  double skipped = 120000.0;
  double dram_bytes = 4096.0;
  bool verified = true;
  bool sampled = false;
};

std::string report9(const RunFields& f) {
  std::ostringstream oss;
  oss << std::boolalpha << R"({
  "schema": "hymm-run-report/9",
  "results": [
    {
      "abbrev": "CR",
      "flow": "HyMM",
      "cycles": )"
      << (f.comb_compute + 10000.0 + f.agg_dram_latency + 42000.0 + 8000.0)
      << R"(,
      "verified": )"
      << f.verified << R"(,
      "sampled": )"
      << f.sampled << R"(,
      "stats": { "skipped_cycles": )"
      << f.skipped << R"(, "dram_total_bytes": )" << f.dram_bytes << R"( },
      "combination": {
        "stalls": { "compute": )"
      << f.comb_compute << R"(, "smq_backlog": 10000 }
      },
      "aggregation": {
        "stalls": {
          "compute": 42000,
          "dram_latency": )"
      << f.agg_dram_latency << R"(,
          "merge_rmw": 8000
        }
      }
    }
  ]
})";
  return oss.str();
}

std::string report9(double agg_dram_latency) {
  RunFields f;
  f.agg_dram_latency = agg_dram_latency;
  return report9(f);
}

ReportSnapshot parse_snapshot(const std::string& text) {
  const std::optional<JsonValue> doc = json_parse(text);
  EXPECT_TRUE(doc.has_value());
  std::string error;
  const std::optional<ReportSnapshot> report =
      normalize_report(*doc, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

// perf_regression's snapshot is a run report: its phases carry the
// stall vectors the attribution is built from.
TEST(DiffNormalize, Bench2PhasesCarryStallVectors) {
  const ReportSnapshot report = parse_snapshot(report9(30000.0));
  ASSERT_EQ(report.runs.size(), 1u);
  const RunSnapshot& run = report.runs[0];
  EXPECT_EQ(run.abbrev, "CR");
  EXPECT_EQ(run.flow, "HyMM");
  EXPECT_DOUBLE_EQ(run.skipped_cycles, 120000.0);
  EXPECT_DOUBLE_EQ(run.dram_total_bytes, 4096.0);
  EXPECT_TRUE(run.verified);
  ASSERT_EQ(run.phases.size(), 2u);
  EXPECT_EQ(run.phases[0].name, "combination");
  // Phase cycles are the stall-bucket sum (the accounting invariant).
  EXPECT_DOUBLE_EQ(run.phases[0].cycles, 100000.0);
  EXPECT_EQ(run.phases[1].name, "aggregation");
  EXPECT_DOUBLE_EQ(run.phases[1].stalls.at("dram_latency"), 30000.0);
}

// A result without per-phase objects still gates: its whole-run stall
// vector becomes a single "total" phase.
TEST(DiffNormalize, Bench1FallsBackToTotalPhase) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-run-report/9",
    "results": [
      { "abbrev": "CR", "flow": "RWP", "cycles": 500,
        "stats": { "stalls": { "compute": 300, "dram_latency": 200 } } }
    ]
  })");
  ASSERT_EQ(report.runs.size(), 1u);
  ASSERT_EQ(report.runs[0].phases.size(), 1u);
  EXPECT_EQ(report.runs[0].phases[0].name, "total");
  EXPECT_DOUBLE_EQ(report.runs[0].phases[0].cycles, 500.0);
}

TEST(DiffNormalize, RunReportHybridRegionsReplaceAggregation) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-run-report/9",
    "results": [
      {
        "abbrev": "CR", "flow": "HyMM", "cycles": 1000,
        "stats": { "skipped_cycles": 640 },
        "combination": { "stalls": { "compute": 400 } },
        "aggregation": { "stalls": { "compute": 600 } },
        "regions": [
          { "stalls": { "compute": 250 } },
          { "stalls": { "compute": 350 } }
        ]
      }
    ]
  })");
  ASSERT_EQ(report.runs.size(), 1u);
  const RunSnapshot& run = report.runs[0];
  EXPECT_DOUBLE_EQ(run.skipped_cycles, 640.0);
  // combination + region1 + region2; the whole-phase aggregation row
  // is replaced by its exact per-region split.
  ASSERT_EQ(run.phases.size(), 3u);
  EXPECT_EQ(run.phases[1].name, "region1");
  EXPECT_EQ(run.phases[2].name, "region2");
  EXPECT_DOUBLE_EQ(run.phases[1].cycles + run.phases[2].cycles, 600.0);
}

// A minimal hymm-run-report/9 report: one CR/HyMM run with a 2x2
// spatial grid whose per-cell cycles the tests can vary.
std::string report6_with_spatial(double cell0_cycles,
                                 double cell3_cycles = 100.0) {
  std::ostringstream oss;
  oss << R"({
    "schema": "hymm-run-report/9",
    "results": [
      {
        "abbrev": "CR", "flow": "HyMM", "cycles": 1000,
        "stats": { "skipped_cycles": 0,
                   "stalls": { "compute": 1000 } },
        "combination": { "stalls": { "compute": 400 } },
        "aggregation": { "stalls": { "compute": 600 } },
        "spatial": {
          "nodes": 100, "tile": 50, "grid_rows": 2, "grid_cols": 2,
          "regions": {
            "op": { "cycles": [)"
      << cell0_cycles << R"(, 0, 0, 0],
                    "dram_bytes": [64, 0, 0, 0] },
            "rwp": { "cycles": [0, 0, 0, )"
      << cell3_cycles << R"(],
                     "dram_bytes": [0, 0, 0, 128] }
          },
          "residual": { "cycles": 0, "dram_bytes": 0 },
          "pe": { "busy_cycles": [1, 2], "mac_ops": [1, 2],
                  "array_busy_cycles": 3 }
        }
      }
    ]
  })";
  return oss.str();
}

TEST(DiffNormalize, RunReport6SpatialBecomesARegionSummedTileGrid) {
  const ReportSnapshot report =
      parse_snapshot(report6_with_spatial(900.0));
  ASSERT_EQ(report.runs.size(), 1u);
  const TileGrid& tiles = report.runs[0].tiles;
  ASSERT_FALSE(tiles.empty());
  EXPECT_EQ(tiles.rows, 2u);
  EXPECT_EQ(tiles.cols, 2u);
  EXPECT_DOUBLE_EQ(tiles.tile, 50.0);
  // Cells sum across the op and rwp regions.
  ASSERT_EQ(tiles.cycles.size(), 4u);
  EXPECT_DOUBLE_EQ(tiles.cycles[0], 900.0);
  EXPECT_DOUBLE_EQ(tiles.cycles[3], 100.0);
  EXPECT_DOUBLE_EQ(tiles.dram_bytes[0], 64.0);
  EXPECT_DOUBLE_EQ(tiles.dram_bytes[3], 128.0);
}

TEST(DiffNormalize, RunReport5WithoutSpatialHasEmptyTiles) {
  const ReportSnapshot report = parse_snapshot(R"({
    "schema": "hymm-run-report/9",
    "results": [
      { "abbrev": "CR", "flow": "RWP", "cycles": 500,
        "stats": { "stalls": { "compute": 500 } } }
    ]
  })");
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_TRUE(report.runs[0].tiles.empty());
}

TEST(DiffReports, RanksTileDeltasWhenGeometriesMatch) {
  const ReportSnapshot base = parse_snapshot(report6_with_spatial(900.0));
  const ReportSnapshot current =
      parse_snapshot(report6_with_spatial(600.0, 400.0));
  const std::vector<RunDiff> diffs = diff_reports(base, current);
  ASSERT_EQ(diffs.size(), 1u);
  ASSERT_EQ(diffs[0].tile_rows.size(), 2u);
  // Largest |cycle delta| first: tile (0,0) moved -300, (1,1) +300.
  EXPECT_EQ(diffs[0].tile_rows[0].row, 0u);
  EXPECT_EQ(diffs[0].tile_rows[0].col, 0u);
  EXPECT_DOUBLE_EQ(diffs[0].tile_rows[0].cycle_delta, -300.0);
  EXPECT_EQ(diffs[0].tile_rows[1].row, 1u);
  EXPECT_EQ(diffs[0].tile_rows[1].col, 1u);
  EXPECT_DOUBLE_EQ(diffs[0].tile_rows[1].cycle_delta, 300.0);
}

TEST(DiffReports, SkipsTileDeltasWhenOneSideLacksSpatial) {
  const ReportSnapshot base = parse_snapshot(report6_with_spatial(900.0));
  ReportSnapshot current = base;
  current.runs[0].tiles = TileGrid{};
  EXPECT_TRUE(diff_reports(current, base)[0].tile_rows.empty());
}

TEST(DiffPrint, RendersTileDeltaTable) {
  const ReportSnapshot base = parse_snapshot(report6_with_spatial(900.0));
  const ReportSnapshot current =
      parse_snapshot(report6_with_spatial(600.0, 400.0));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("spatial tiles"), std::string::npos) << text;
  EXPECT_NE(text.find("(0,0)"), std::string::npos) << text;
  EXPECT_NE(text.find("(1,1)"), std::string::npos) << text;
}

// Spatial geometry that does not match the region arrays is a schema
// error naming the result (hymm_diff exits 3), never an allocation
// sized by the header: 1e6 x 1e6 with no arrays used to abort with
// std::bad_alloc and -3 x 2 with std::length_error.
TEST(DiffNormalize, BadSpatialGeometryIsASchemaError) {
  const std::string flow = R"("flow": "HyMM",)";
  std::string unbacked = report9(30000.0);
  unbacked.insert(unbacked.find(flow) + flow.size(),
                  R"( "spatial": {"grid_rows": 1e6, "grid_cols": 1e6,
                                  "tile": 1},)");
  std::vector<std::string> docs = {unbacked};
  const std::string dims = R"("grid_rows": 2, "grid_cols": 2)";
  for (const char* bad :
       {R"("grid_rows": -3, "grid_cols": 2)",
        R"("grid_rows": 2.5, "grid_cols": 2)",
        R"("grid_rows": 2, "grid_cols": 3)",
        R"("grid_rows": 0, "grid_cols": 2)"}) {
    std::string doc = report6_with_spatial(900.0);
    docs.push_back(doc.replace(doc.find(dims), dims.size(), bad));
  }
  for (const std::string& text : docs) {
    const std::optional<JsonValue> doc = json_parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    std::string error;
    EXPECT_FALSE(normalize_report(*doc, &error).has_value()) << text;
    EXPECT_NE(error.find("CR/HyMM"), std::string::npos) << error;
    EXPECT_NE(error.find("spatial"), std::string::npos) << error;
  }
}

TEST(DiffNormalize, RejectsUnsupportedSchema) {
  for (const char* schema : {"hymm-run-report/8", "hymm-run-report/10"}) {
    const std::optional<JsonValue> doc = json_parse(
        std::string(R"({ "schema": ")") + schema + R"(", "results": [] })");
    ASSERT_TRUE(doc.has_value());
    std::string error;
    EXPECT_FALSE(normalize_report(*doc, &error).has_value()) << schema;
    EXPECT_NE(error.find(schema), std::string::npos) << error;
  }
}

// The acceptance criterion: inject a 30000-cycle regression into one
// (phase, bucket) cell and require the diff to rank that cell first
// with >= 90% of the delta attributed to it.
TEST(DiffReports, AttributesInjectedStallDeltaToTheRightCell) {
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  // Candidate: dram_latency regresses by 30000, compute drifts by a
  // comparatively tiny 500, fast-forward skipped less.
  RunFields slow;
  slow.agg_dram_latency = 60000.0;
  slow.comb_compute = 90500.0;
  slow.skipped = 110000.0;
  const ReportSnapshot current = parse_snapshot(report9(slow));

  const std::vector<RunDiff> diffs = diff_reports(base, current);
  ASSERT_EQ(diffs.size(), 1u);
  const RunDiff& diff = diffs[0];
  EXPECT_DOUBLE_EQ(diff.cycle_delta(), 30500.0);
  EXPECT_DOUBLE_EQ(diff.skipped_cycles_delta, -10000.0);

  // Rows sum exactly to the cycle delta: no residual bucket.
  double row_sum = 0.0;
  for (const DiffRow& row : diff.rows) row_sum += row.delta;
  EXPECT_DOUBLE_EQ(row_sum, diff.cycle_delta());

  // Top-ranked row is the injected cell, holding >= 90% of the delta.
  ASSERT_FALSE(diff.rows.empty());
  const DiffRow& top = diff.rows.front();
  EXPECT_EQ(top.phase, "aggregation");
  EXPECT_EQ(top.cause, "dram_latency");
  EXPECT_DOUBLE_EQ(top.delta, 30000.0);
  EXPECT_GE(top.delta / diff.cycle_delta(), 0.9);
}

// Runs only the current report has are skipped; a baseline run the
// current report lacks comes back `missing` and fails the gate.
TEST(DiffReports, SkipsRunsMissingFromOneSide) {
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  const ReportSnapshot empty = parse_snapshot(
      R"({ "schema": "hymm-run-report/9", "results": [] })");
  EXPECT_TRUE(diff_reports(empty, base).empty());
  const std::vector<RunDiff> diffs = diff_reports(base, empty);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].missing);
  EXPECT_FALSE(diffs[0].passes());
  std::ostringstream out;
  print_diff(diffs, out);
  EXPECT_NE(out.str().find("CR/HyMM: missing"), std::string::npos)
      << out.str();
}

TEST(DiffGate, IdenticalReportsPass) {
  const ReportSnapshot report = parse_snapshot(report9(30000.0));
  const std::vector<RunDiff> diffs = diff_reports(report, report);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].passes());
}

// Cycles moved between two cells of one phase: the total is unchanged,
// but the behaviour is not.
TEST(DiffGate, StallShiftWithUnchangedTotalFails) {
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  ReportSnapshot current = base;
  std::map<std::string, double>& stalls = current.runs[0].phases[1].stalls;
  stalls["dram_latency"] -= 1000.0;
  stalls["compute"] += 1000.0;
  const std::vector<RunDiff> diffs = diff_reports(base, current);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(diffs[0].cycle_delta(), 0.0);
  EXPECT_TRUE(diffs[0].changed());
  EXPECT_FALSE(diffs[0].passes());
  std::ostringstream out;
  print_diff(diffs, out);
  EXPECT_EQ(out.str().find("no cycle delta"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("dram_latency"), std::string::npos) << out.str();
}

TEST(DiffGate, DramByteDeltaFails) {
  RunFields more_traffic;
  more_traffic.dram_bytes = 4160.0;
  const std::vector<RunDiff> diffs = diff_reports(
      parse_snapshot(report9(30000.0)), parse_snapshot(report9(more_traffic)));
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(diffs[0].dram_bytes_delta, 64.0);
  EXPECT_FALSE(diffs[0].passes());
}

TEST(DiffGate, UnverifiedExactRunFails) {
  RunFields unverified;
  unverified.verified = false;
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  const std::vector<RunDiff> diffs =
      diff_reports(base, parse_snapshot(report9(unverified)));
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].unverified);
  EXPECT_FALSE(diffs[0].changed());
  EXPECT_FALSE(diffs[0].passes());
}

// Sampled estimates are no longer produced: a stale report holding one
// is refused as a schema error naming the result, never diffed as if
// it were exact. An explicit "sampled": false still loads, and an
// exact run that failed verification still fails the gate.
TEST(DiffGate, SampledRunsAreRefused) {
  RunFields sampled;
  sampled.sampled = true;
  const std::optional<JsonValue> doc = json_parse(report9(sampled));
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_FALSE(normalize_report(*doc, &error).has_value());
  EXPECT_NE(error.find("CR/HyMM"), std::string::npos) << error;
  EXPECT_NE(error.find("sampled"), std::string::npos) << error;

  RunFields unverified;
  unverified.verified = false;
  const RunDiff diff = diff_reports(parse_snapshot(report9(30000.0)),
                                    parse_snapshot(report9(unverified)))[0];
  EXPECT_TRUE(diff.unverified);
  EXPECT_FALSE(diff.passes());
}

TEST(DiffPrint, RendersRankedTableAndShares) {
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  const ReportSnapshot current = parse_snapshot(report9(60000.0));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("CR/HyMM"), std::string::npos);
  EXPECT_NE(text.find("dram_latency"), std::string::npos);
  EXPECT_NE(text.find("aggregation"), std::string::npos);
  EXPECT_NE(text.find("30000"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(DiffPrint, ReportsNoCycleDelta) {
  const ReportSnapshot report = parse_snapshot(report9(30000.0));
  std::ostringstream out;
  print_diff(diff_reports(report, report), out);
  EXPECT_NE(out.str().find("no cycle delta"), std::string::npos);
}

TEST(DiffPrint, CapsRowsAndAggregatesTheRest) {
  // Base/current differ in every bucket; max_rows=1 folds the rest
  // into an "(other)" row so the shares still total 100%.
  RunFields slow;
  slow.agg_dram_latency = 60000.0;
  slow.comb_compute = 95000.0;
  const ReportSnapshot base = parse_snapshot(report9(30000.0));
  const ReportSnapshot current = parse_snapshot(report9(slow));
  std::ostringstream out;
  print_diff(diff_reports(base, current), out, /*max_rows=*/1);
  const std::string text = out.str();
  EXPECT_NE(text.find("dram_latency"), std::string::npos);
  EXPECT_NE(text.find("(other)"), std::string::npos);
}

}  // namespace
}  // namespace hymm
