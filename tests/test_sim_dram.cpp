// Tests for the DRAM channel model: latency, bandwidth serialization,
// queue limits and byte accounting, plus the address map.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/address_map.hpp"
#include "sim/dram.hpp"

namespace hymm {
namespace {

AcceleratorConfig test_config() {
  AcceleratorConfig c;
  c.dram_latency = 10;
  c.dram_queue_entries = 4;
  return c;
}

// Advances the model to `target`, collecting completion tags.
std::vector<std::uint64_t> drain_until(Dram& dram, Cycle from, Cycle target) {
  std::vector<std::uint64_t> tags;
  for (Cycle t = from; t <= target; ++t) {
    dram.tick(t);
    tags.insert(tags.end(), dram.completions().begin(),
                dram.completions().end());
  }
  return tags;
}

TEST(Dram, ReadCompletesAfterLatency) {
  SimStats stats;
  Dram dram(test_config(), stats);
  dram.issue_read(0x1000, TrafficClass::kCombined, 42, 0);
  dram.tick(9);
  EXPECT_TRUE(dram.completions().empty());
  dram.tick(10);
  ASSERT_EQ(dram.completions().size(), 1u);
  EXPECT_EQ(dram.completions()[0], 42u);
}

TEST(Dram, BandwidthSerializesBackToBackReads) {
  SimStats stats;
  Dram dram(test_config(), stats);
  // Two reads the same cycle: second occupies the next slot, so it
  // completes one cycle later.
  dram.issue_read(0x1000, TrafficClass::kCombined, 1, 0);
  dram.issue_read(0x2000, TrafficClass::kCombined, 2, 0);
  dram.tick(10);
  ASSERT_EQ(dram.completions().size(), 1u);
  EXPECT_EQ(dram.completions()[0], 1u);
  dram.tick(11);
  ASSERT_EQ(dram.completions().size(), 1u);
  EXPECT_EQ(dram.completions()[0], 2u);
}

TEST(Dram, QueueLimitEnforced) {
  SimStats stats;
  Dram dram(test_config(), stats);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(dram.can_accept_read());
    dram.issue_read(i * 64, TrafficClass::kWeights, i, 0);
  }
  EXPECT_FALSE(dram.can_accept_read());
  EXPECT_THROW(dram.issue_read(0x5000, TrafficClass::kWeights, 9, 0),
               CheckError);
  // Completions free slots.
  const auto tags = drain_until(dram, 0, 20);
  EXPECT_EQ(tags.size(), 4u);
  EXPECT_TRUE(dram.can_accept_read());
}

TEST(Dram, WritesConsumeBandwidthAndBytes) {
  SimStats stats;
  Dram dram(test_config(), stats);
  dram.issue_write(0x0, TrafficClass::kOutput, 5);
  dram.issue_write(0x40, TrafficClass::kOutput, 5);
  EXPECT_EQ(stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            2 * kLineBytes);
  EXPECT_EQ(dram.busy_until(), 7u);  // two slots from cycle 5
}

TEST(Dram, WritesDelaySubsequentReads) {
  SimStats stats;
  Dram dram(test_config(), stats);
  dram.issue_write(0x0, TrafficClass::kOutput, 0);
  dram.issue_read(0x40, TrafficClass::kCombined, 1, 0);
  // Write takes slot 0; read slot 1 -> completes at 11.
  dram.tick(10);
  EXPECT_TRUE(dram.completions().empty());
  dram.tick(11);
  EXPECT_EQ(dram.completions().size(), 1u);
}

TEST(Dram, ByteCountersPerClass) {
  SimStats stats;
  Dram dram(test_config(), stats);
  dram.issue_read(0x0, TrafficClass::kAdjacency, 1, 0);
  dram.issue_streaming_read(TrafficClass::kAdjacency, 0);
  dram.issue_write(0x40, TrafficClass::kPartial, 0);
  EXPECT_EQ(stats.dram_read_bytes[static_cast<std::size_t>(
                TrafficClass::kAdjacency)],
            2 * kLineBytes);
  EXPECT_EQ(stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kPartial)],
            kLineBytes);
  EXPECT_EQ(stats.dram_total_bytes(), 3 * kLineBytes);
}

TEST(Dram, ReducedBandwidthWidensSlots) {
  AcceleratorConfig config = test_config();
  config.dram_bytes_per_cycle = 16;  // 4 cycles per line
  SimStats stats;
  Dram dram(config, stats);
  dram.issue_read(0x0, TrafficClass::kCombined, 1, 0);
  dram.issue_read(0x40, TrafficClass::kCombined, 2, 0);
  // First at slot 0 (ready 10), second at slot 4 (ready 14).
  const auto tags = drain_until(dram, 0, 13);
  ASSERT_EQ(tags.size(), 1u);
  dram.tick(14);
  ASSERT_EQ(dram.completions().size(), 1u);
  EXPECT_EQ(dram.completions()[0], 2u);
}

TEST(Dram, WriteBufferBackPressure) {
  AcceleratorConfig config = test_config();
  config.dram_write_buffer_lines = 2;
  SimStats stats;
  Dram dram(config, stats);
  EXPECT_TRUE(dram.can_accept_write(0));
  dram.issue_write(0x0, TrafficClass::kPartial, 0);
  dram.issue_write(0x40, TrafficClass::kPartial, 0);
  EXPECT_TRUE(dram.can_accept_write(0));  // exactly at the window edge
  dram.issue_write(0x80, TrafficClass::kPartial, 0);
  EXPECT_FALSE(dram.can_accept_write(0));
  // The channel catches up as cycles pass.
  EXPECT_TRUE(dram.can_accept_write(1));
}

TEST(Dram, ReadsShareBandwidthWithWriteWindow) {
  AcceleratorConfig config = test_config();
  config.dram_write_buffer_lines = 4;
  SimStats stats;
  Dram dram(config, stats);
  // Streaming reads consume the same slots the write window tracks.
  for (int i = 0; i < 5; ++i) {
    dram.issue_streaming_read(TrafficClass::kAdjacency, 0);
  }
  EXPECT_FALSE(dram.can_accept_write(0));
  EXPECT_TRUE(dram.can_accept_write(1));
}

TEST(AddressMap, DisjointLineAlignedRegions) {
  AddressMap map;
  const AddressRegion a = map.allocate("a", 100, TrafficClass::kWeights);
  const AddressRegion b = map.allocate("b", 64, TrafficClass::kCombined);
  EXPECT_EQ(a.bytes % kLineBytes, 0u);
  EXPECT_EQ(a.bytes, 128u);  // rounded up
  EXPECT_GE(b.base, a.end());
  EXPECT_EQ(map.region_of(a.base + 64).name, "a");
  EXPECT_EQ(map.region_of(b.base).cls, TrafficClass::kCombined);
}

TEST(AddressMap, UnmappedAddressThrows) {
  AddressMap map;
  map.allocate("only", 64, TrafficClass::kWeights);
  EXPECT_THROW(map.region_of(0x0), CheckError);
}

TEST(AddressMap, LineOfIndexesElements) {
  AddressMap map;
  const AddressRegion r = map.allocate("x", 10 * kLineBytes,
                                       TrafficClass::kCombined);
  EXPECT_EQ(r.line_of(0), r.base);
  EXPECT_EQ(r.line_of(3), r.base + 3 * kLineBytes);
  EXPECT_EQ(r.line_of(2, 2), r.base + 4 * kLineBytes);
}

TEST(AddressMap, ZeroByteAllocationStillGetsALine) {
  AddressMap map;
  const AddressRegion r = map.allocate("empty", 0, TrafficClass::kOutput);
  EXPECT_EQ(r.bytes, kLineBytes);
}

TEST(Stats, BandwidthUtilization) {
  SimStats stats;
  stats.cycles = 100;
  stats.dram_read_bytes[0] = 3200;  // 50 lines
  EXPECT_DOUBLE_EQ(stats.dram_bandwidth_utilization(64), 0.5);
  EXPECT_DOUBLE_EQ(SimStats{}.dram_bandwidth_utilization(64), 0.0);
}

TEST(Stats, MergeAndDerivedMetrics) {
  SimStats a;
  a.cycles = 100;
  a.alu_busy_cycles = 50;
  a.dmb_read_hits = 30;
  a.dmb_read_misses = 10;
  a.note_partial_bytes(128);
  a.note_partial_bytes(-64);
  EXPECT_EQ(a.partial_bytes_now, 64u);
  EXPECT_EQ(a.partial_bytes_peak, 128u);
  EXPECT_DOUBLE_EQ(a.alu_utilization(), 0.5);
  EXPECT_DOUBLE_EQ(a.dmb_hit_rate(), 0.75);

  SimStats b;
  b.cycles = 50;
  b.alu_busy_cycles = 10;
  b.partial_bytes_peak = 256;
  a.merge_phase(b);
  EXPECT_EQ(a.cycles, 150u);
  EXPECT_EQ(a.alu_busy_cycles, 60u);
  EXPECT_EQ(a.partial_bytes_peak, 256u);
}

}  // namespace
}  // namespace hymm
