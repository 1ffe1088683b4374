// Report renderer tests: RFC 4180 CSV quoting, a golden-file lock on
// the CSV header and row layout, and the JSON run report round-trip
// (valid JSON carrying the full SimStats counter set).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hymm {
namespace {

TEST(CsvQuote, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_quote("cora"), "cora");
  EXPECT_EQ(csv_quote(""), "");
  EXPECT_EQ(csv_quote("has space"), "has space");
}

TEST(CsvQuote, SpecialFieldsAreQuoted) {
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_quote("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_quote(","), "\",\"");
}

ExperimentResult make_result() {
  ExperimentResult r;
  r.dataset = "Cora";
  r.abbrev = "CR";
  r.scale = 0.5;
  r.flow = Dataflow::kHybrid;
  r.stats.cycles = 1000;
  r.combination_stats.cycles = 400;
  r.aggregation_stats.cycles = 600;
  r.stats.mac_ops = 2048;
  r.stats.alu_busy_cycles = 250;  // ALU utilization 0.25
  r.stats.dmb_read_hits = 3;      // DMB hit rate 0.75
  r.stats.dmb_read_misses = 1;
  r.stats.partial_bytes_peak = 4096;
  r.preprocess_ms = 1.5;
  // DRAM total 2016 = 64*21 + 32*21.
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    r.stats.dram_read_bytes[c] = 64 * (c + 1);
    r.stats.dram_write_bytes[c] = 32 * (c + 1);
  }
  r.dram_peak_bytes_per_cycle = 64;
  r.verified = true;
  r.max_abs_err = 0;
  // Stall vector summing to cycles: 700 compute, 100 merge, 200 DRAM
  // latency — a compute-bound verdict.
  r.stats.account(StallCause::kCompute, 700);
  r.stats.account(StallCause::kMergeRmw, 100);
  r.stats.account(StallCause::kDramLatency, 200);
  return r;
}

// Golden-file lock: external tooling parses this layout; any change
// here must be deliberate and versioned.
TEST(ResultsCsv, GoldenHeaderAndRow) {
  std::vector<ExperimentResult> results = {make_result()};
  std::ostringstream out;
  write_results_csv(results, out);
  const std::string expected =
      "dataset,scale,flow,cycles,combination_cycles,aggregation_cycles,"
      "mac_ops,alu_utilization,dmb_hit_rate,partial_bytes_peak,"
      "preprocess_ms,"
      "read_adjacency,write_adjacency,read_features,write_features,"
      "read_weights,write_weights,read_XW,write_XW,read_AXW,write_AXW,"
      "read_partial,write_partial,dram_total_bytes,verified,max_abs_err,"
      "stall_compute,stall_merge_rmw,stall_dram_latency,"
      "stall_dram_bandwidth,stall_lsq_full,stall_smq_backlog,"
      "stall_dmb_miss,stall_accumulator_conflict,stall_drain,"
      "bottleneck,dram_bw_utilization,"
      "lsq_lat_p50,lsq_lat_p99,lsq_lat_max,"
      "dram_lat_p50,dram_lat_p99,dram_lat_max,"
      "pe_max_over_mean,pe_cov,pe_gini,"
      "rowband_max_over_mean,rowband_cov,rowband_gini\n"
      "CR,0.5,HyMM,1000,400,600,2048,0.25,0.75,4096,1.5,"
      "64,32,128,64,192,96,256,128,320,160,384,192,2016,1,0,"
      "700,100,200,0,0,0,0,0,0,compute-bound,0.0315,"
      "0,0,0,0,0,0,"
      "0,0,0,0,0,0\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ResultsCsv, CommaInDatasetNameIsQuoted) {
  ExperimentResult r = make_result();
  r.abbrev = "custom,graph";
  std::vector<ExperimentResult> results = {r};
  std::ostringstream out;
  write_results_csv(results, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("\"custom,graph\",0.5,HyMM"), std::string::npos)
      << csv;
  // Every data row still has the same number of top-level commas as
  // the header once the quoted field is collapsed.
  const auto second_line = csv.substr(csv.find('\n') + 1);
  EXPECT_EQ(second_line.find("custom,graph"),
            second_line.find("\"custom,graph\"") + 1);
}

TEST(ResultsJson, IsValidAndCarriesFullCounterSet) {
  ExperimentResult r = make_result();
  // Sentinel values for every SimStats counter the report must carry.
  r.stats.cycles = 1000;
  r.stats.mac_ops = 11;
  r.stats.alu_busy_cycles = 12;
  r.stats.merge_adds = 13;
  r.stats.dmb_read_hits = 14;
  r.stats.dmb_read_misses = 15;
  r.stats.dmb_accumulate_hits = 16;
  r.stats.dmb_accumulate_misses = 17;
  r.stats.dmb_evictions = 18;
  r.stats.dmb_partial_spills = 19;
  r.stats.lsq_loads = 20;
  r.stats.lsq_stores = 21;
  r.stats.lsq_forwards = 22;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    r.stats.dram_read_bytes[c] = 1100 + c;
    r.stats.dram_write_bytes[c] = 1200 + c;
  }
  r.stats.partial_bytes_peak = 23;
  r.partition.nodes = 100;
  r.partition.region1_rows = 10;
  r.partition.region2_cols = 20;
  r.partition.nnz_region1 = 31;
  r.partition.nnz_region2 = 32;
  r.partition.nnz_region3 = 33;

  std::vector<ExperimentResult> results = {r};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc)) << doc;

  EXPECT_NE(doc.find("\"schema\": \"hymm-run-report/9\""),
            std::string::npos);
  const auto expect_field = [&doc](const std::string& key,
                                   std::uint64_t value) {
    const std::string needle =
        "\"" + key + "\": " + std::to_string(value);
    EXPECT_NE(doc.find(needle), std::string::npos) << needle;
  };
  expect_field("mac_ops", 11);
  expect_field("alu_busy_cycles", 12);
  expect_field("merge_adds", 13);
  expect_field("dmb_read_hits", 14);
  expect_field("dmb_read_misses", 15);
  expect_field("dmb_accumulate_hits", 16);
  expect_field("dmb_accumulate_misses", 17);
  expect_field("dmb_evictions", 18);
  expect_field("dmb_partial_spills", 19);
  expect_field("lsq_loads", 20);
  expect_field("lsq_stores", 21);
  expect_field("lsq_forwards", 22);
  expect_field("partial_bytes_peak", 23);
  expect_field("adjacency", 1100);  // first read class
  expect_field("partial", 1205);    // last write class
  expect_field("region1_rows", 10);
  expect_field("nnz_region3", 33);
  // Stall breakdown, verdict and roofline (schema /2 additions).
  expect_field("compute", 700);
  expect_field("dram_latency", 200);
  expect_field("stall_total", 1000);
  // Fast-forward coverage (schema /3 additions).
  EXPECT_NE(doc.find("\"skipped_cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"sim_wall_ms\""), std::string::npos);
  expect_field("dram_peak_bytes_per_cycle", 64);
  EXPECT_NE(doc.find("\"bottleneck\": \"compute-bound\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"dram_bw_utilization\""), std::string::npos);
  // Per-phase deltas and the hybrid's region array are present.
  EXPECT_NE(doc.find("\"combination\""), std::string::npos);
  EXPECT_NE(doc.find("\"aggregation\""), std::string::npos);
  EXPECT_NE(doc.find("\"regions\""), std::string::npos);
  // Derived ratios are numbers, not NaN (JSON has no NaN).
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  // No "tune" object: the threshold search that wrote it is gone.
  EXPECT_EQ(doc.find("\"tune\""), std::string::npos);
}

TEST(ResultsJson, NonHybridOmitsPartitionAndRegions) {
  ExperimentResult r = make_result();
  r.flow = Dataflow::kRowWiseProduct;
  std::vector<ExperimentResult> results = {r};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_EQ(doc.find("\"partition\""), std::string::npos);
  EXPECT_EQ(doc.find("\"regions\""), std::string::npos);
}

// Schema /5: histograms and timeseries only appear when non-empty,
// and carry the quantile summary / column arrays when they do.
TEST(ResultsJson, OmitsHistogramsAndTimeseriesWhenEmpty) {
  std::vector<ExperimentResult> results = {make_result()};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_EQ(doc.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(doc.find("\"timeseries\""), std::string::npos);
}

TEST(ResultsJson, CarriesHistogramsAndTimeseriesWhenPresent) {
  ExperimentResult r = make_result();
  r.histograms.lsq_load_latency.observe(10);
  r.histograms.lsq_load_latency.observe(100);
  r.histograms.dram_read_latency.observe(55);
  r.timeseries.interval = 256;
  TimeSeriesSample s;
  s.cycle = 256;
  s.lsq_depth = 3;
  s.dram_bytes = 4096;
  s.stall_cycles[static_cast<std::size_t>(StallCause::kCompute)] = 200;
  r.timeseries.samples.push_back(s);
  std::vector<ExperimentResult> results = {r};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"lsq_load_latency\""), std::string::npos);
  EXPECT_NE(doc.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
  EXPECT_NE(doc.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(doc.find("\"interval\": 256"), std::string::npos);
  EXPECT_NE(doc.find("\"lsq_depth\""), std::string::npos);
  EXPECT_NE(doc.find("\"dram_bytes\""), std::string::npos);
}

// Schema /6: the spatial object only appears when the run collected
// spatial attribution, and then carries the per-region tile grid, the
// residual bucket, the per-PE counters and the imbalance summaries.
TEST(ResultsJson, OmitsSpatialWhenEmpty) {
  std::vector<ExperimentResult> results = {make_result()};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_EQ(doc.find("\"spatial\""), std::string::npos);
}

ExperimentResult make_spatial_result() {
  ExperimentResult r = make_result();
  SpatialData& sp = r.spatial;
  sp.nodes = 100;
  sp.tile = 25;
  sp.grid_rows = 4;
  sp.grid_cols = 4;
  auto& rwp =
      sp.regions[static_cast<std::size_t>(SpatialRegion::kRwp)];
  const std::size_t cells = sp.grid_rows * sp.grid_cols;
  rwp.nnz.assign(cells, 0);
  rwp.macs.assign(cells, 0);
  rwp.dmb_hits.assign(cells, 0);
  rwp.dmb_misses.assign(cells, 0);
  rwp.dram_bytes.assign(cells, 0);
  rwp.cycles.assign(cells, 0);
  rwp.nnz[0] = 7;
  rwp.macs[0] = 14;
  rwp.cycles[0] = 900;
  rwp.cycles[5] = 100;
  rwp.dram_bytes[0] = 512;
  sp.residual_cycles = 42;
  sp.residual_dram_bytes = 64;
  sp.lane_busy_cycles = {400, 300, 200, 100};
  sp.lane_mac_ops = {40, 30, 20, 10};
  sp.array_busy_cycles = 400;
  return r;
}

TEST(ResultsJson, CarriesSpatialWhenPresent) {
  std::vector<ExperimentResult> results = {make_spatial_result()};
  std::ostringstream out;
  write_results_json(results, out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"spatial\""), std::string::npos);
  EXPECT_NE(doc.find("\"grid_rows\": 4"), std::string::npos);
  EXPECT_NE(doc.find("\"tile\": 25"), std::string::npos);
  // Only the touched region appears...
  EXPECT_NE(doc.find("\"rwp\""), std::string::npos);
  EXPECT_EQ(doc.find("\"region3\""), std::string::npos);
  // ...with its grid arrays, the residual and the PE counters.
  EXPECT_NE(doc.find("\"residual\""), std::string::npos);
  EXPECT_NE(doc.find("\"busy_cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"array_busy_cycles\": 400"), std::string::npos);
  // Imbalance summaries: max lane (400) over mean (250) = 1.6.
  EXPECT_NE(doc.find("\"imbalance\""), std::string::npos);
  EXPECT_NE(doc.find("\"pe_busy\""), std::string::npos);
  EXPECT_NE(doc.find("\"row_band_cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"max_over_mean\": 1.6"), std::string::npos);
  EXPECT_EQ(doc.find("nan"), std::string::npos);
}

TEST(ResultsCsv, SpatialResultFillsImbalanceColumns) {
  std::vector<ExperimentResult> results = {make_spatial_result()};
  std::ostringstream out;
  write_results_csv(results, out);
  const std::string csv = out.str();
  // The lane-busy imbalance lands in the pe_* columns: max/mean 1.6.
  EXPECT_NE(csv.find(",1.6,"), std::string::npos) << csv;
  // Row-band cycles are (900, 100, 0, 0): max/mean 900/250 = 3.6.
  EXPECT_NE(csv.find(",3.6,"), std::string::npos) << csv;
}

TEST(ResultsJson, AppendsMetricsRegistryWhenProvided) {
  MetricsRegistry reg;
  reg.counter("pe.macs").add(123456);
  std::vector<ExperimentResult> results = {make_result()};
  std::ostringstream out;
  write_results_json(results, out, &reg);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"pe.macs\": 123456"), std::string::npos);
}

TEST(ResultsJson, AppendsTraceInfoWhenProvided) {
  TraceWriter trace;
  const TraceWriter::NameId evt = trace.intern("evt");
  trace.instant(0, evt, 1);
  trace.instant(0, evt, 2);
  std::vector<ExperimentResult> results = {make_result()};
  std::ostringstream out;
  write_results_json(results, out, nullptr, &trace);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_NE(doc.find("\"trace\""), std::string::npos);
  EXPECT_NE(doc.find("\"events\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped_instants\": 0"), std::string::npos);
  // Schema /3: the trace block reports the fast-forwarded span.
  EXPECT_NE(doc.find("\"skipped_cycles\": 0"), std::string::npos);
}

}  // namespace
}  // namespace hymm
