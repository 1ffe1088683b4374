// SimStats unit tests: divide-by-zero guards on the derived metrics,
// phase merging semantics and the scale/delta helpers used by the
// hybrid's per-region attribution.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hpp"

namespace hymm {
namespace {

// Regression: an empty run (zero cycles) must report 0.0 utilization,
// never NaN — the CSV/JSON reports feed these straight to plots.
TEST(SimStatsGuards, EmptyRunUtilizationIsZeroNotNan) {
  const SimStats s;
  ASSERT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.alu_utilization(), 0.0);
  EXPECT_FALSE(std::isnan(s.alu_utilization()));
  EXPECT_EQ(s.dram_bandwidth_utilization(64), 0.0);
  EXPECT_FALSE(std::isnan(s.dram_bandwidth_utilization(64)));
  EXPECT_EQ(s.dmb_hit_rate(), 0.0);
  EXPECT_FALSE(std::isnan(s.dmb_hit_rate()));
}

TEST(SimStatsGuards, ZeroBandwidthChannelIsZeroNotInf) {
  SimStats s;
  s.cycles = 100;
  s.dram_read_bytes[0] = 6400;
  EXPECT_EQ(s.dram_bandwidth_utilization(0), 0.0);
}

TEST(SimStatsGuards, NonEmptyRunComputesRatios) {
  SimStats s;
  s.cycles = 200;
  s.alu_busy_cycles = 50;
  s.dram_read_bytes[1] = 6400;
  s.dram_write_bytes[2] = 6400;
  EXPECT_DOUBLE_EQ(s.alu_utilization(), 0.25);
  EXPECT_DOUBLE_EQ(s.dram_bandwidth_utilization(64), 1.0);
}

// merge_phase adds counters but takes the MAX of the partial-output
// peaks: phases run back to back on the same buffer, so their peaks
// never coexist and summing would overstate the footprint (Fig 10).
TEST(SimStatsMerge, PartialPeakTakesMaxNotSum) {
  SimStats total;
  total.cycles = 100;
  total.partial_bytes_peak = 4096;
  total.partial_bytes_now = 128;
  SimStats phase;
  phase.cycles = 50;
  phase.partial_bytes_peak = 1024;
  phase.partial_bytes_now = 64;
  total.merge_phase(phase);
  EXPECT_EQ(total.cycles, 150u);
  EXPECT_EQ(total.partial_bytes_peak, 4096u);  // max, not 5120
  EXPECT_EQ(total.partial_bytes_now, 64u);     // latest state wins
  SimStats bigger;
  bigger.partial_bytes_peak = 9000;
  total.merge_phase(bigger);
  EXPECT_EQ(total.partial_bytes_peak, 9000u);
}

TEST(SimStatsMerge, AdditiveCountersSum) {
  SimStats a, b;
  a.mac_ops = 3;
  a.dram_read_bytes[0] = 64;
  b.mac_ops = 4;
  b.dram_read_bytes[0] = 128;
  b.dram_write_bytes[5] = 256;
  a.merge_phase(b);
  EXPECT_EQ(a.mac_ops, 7u);
  EXPECT_EQ(a.dram_read_bytes[0], 192u);
  EXPECT_EQ(a.dram_write_bytes[5], 256u);
}

// scale_stats + stats_delta are the hybrid's region-2/3 attribution
// primitives: the scaled part and its remainder must sum back exactly
// to the original, whatever the rounding did.
TEST(SimStatsScale, ScalePlusRemainderIsExact) {
  SimStats s;
  s.cycles = 1001;
  s.mac_ops = 777;
  s.alu_busy_cycles = 333;
  s.dmb_read_hits = 13;
  s.lsq_loads = 99;
  s.dram_read_bytes[1] = 640;
  s.dram_write_bytes[4] = 64;
  const SimStats part = scale_stats(s, 0.37);
  const SimStats rest = stats_delta(s, part);
  EXPECT_EQ(part.cycles + rest.cycles, s.cycles);
  EXPECT_EQ(part.mac_ops + rest.mac_ops, s.mac_ops);
  EXPECT_EQ(part.alu_busy_cycles + rest.alu_busy_cycles, s.alu_busy_cycles);
  EXPECT_EQ(part.dmb_read_hits + rest.dmb_read_hits, s.dmb_read_hits);
  EXPECT_EQ(part.lsq_loads + rest.lsq_loads, s.lsq_loads);
  EXPECT_EQ(part.dram_read_bytes[1] + rest.dram_read_bytes[1],
            s.dram_read_bytes[1]);
  EXPECT_EQ(part.dram_write_bytes[4] + rest.dram_write_bytes[4],
            s.dram_write_bytes[4]);
}

TEST(SimStatsScale, EndpointsAreIdentityAndZero) {
  SimStats s;
  s.cycles = 500;
  s.mac_ops = 123;
  const SimStats zero = scale_stats(s, 0.0);
  EXPECT_EQ(zero.cycles, 0u);
  EXPECT_EQ(zero.mac_ops, 0u);
  const SimStats all = scale_stats(s, 1.0);
  EXPECT_EQ(all.cycles, 500u);
  EXPECT_EQ(all.mac_ops, 123u);
}

}  // namespace
}  // namespace hymm
