#include "sim/stats.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace hymm {

std::string to_string(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kAdjacency: return "adjacency";
    case TrafficClass::kFeatures: return "features";
    case TrafficClass::kWeights: return "weights";
    case TrafficClass::kCombined: return "XW";
    case TrafficClass::kOutput: return "AXW";
    case TrafficClass::kPartial: return "partial";
  }
  return "?";
}

Cycle SimStats::stall_total() const {
  Cycle total = 0;
  for (const Cycle c : stall_cycles) total += c;
  return total;
}

std::uint64_t SimStats::dram_total_read_bytes() const {
  std::uint64_t total = 0;
  for (const auto b : dram_read_bytes) total += b;
  return total;
}

std::uint64_t SimStats::dram_total_write_bytes() const {
  std::uint64_t total = 0;
  for (const auto b : dram_write_bytes) total += b;
  return total;
}

std::uint64_t SimStats::dram_total_bytes() const {
  return dram_total_read_bytes() + dram_total_write_bytes();
}

double SimStats::dmb_hit_rate() const {
  const std::uint64_t hits = dmb_read_hits + dmb_accumulate_hits;
  const std::uint64_t total =
      hits + dmb_read_misses + dmb_accumulate_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double SimStats::alu_utilization() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(alu_busy_cycles) /
                           static_cast<double>(cycles);
}

void SimStats::note_partial_bytes(std::int64_t delta) {
  if (delta < 0) {
    const auto dec = static_cast<std::uint64_t>(-delta);
    HYMM_DCHECK(partial_bytes_now >= dec);
    partial_bytes_now -= std::min(partial_bytes_now, dec);
  } else {
    partial_bytes_now += static_cast<std::uint64_t>(delta);
  }
  partial_bytes_peak = std::max(partial_bytes_peak, partial_bytes_now);
}

double SimStats::dram_bandwidth_utilization(
    std::size_t bytes_per_cycle) const {
  if (cycles == 0 || bytes_per_cycle == 0) return 0.0;
  return static_cast<double>(dram_total_bytes()) /
         (static_cast<double>(cycles) *
          static_cast<double>(bytes_per_cycle));
}

void SimStats::merge_phase(const SimStats& other) {
  cycles += other.cycles;
  skipped_cycles += other.skipped_cycles;
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    stall_cycles[i] += other.stall_cycles[i];
  }
  mac_ops += other.mac_ops;
  alu_busy_cycles += other.alu_busy_cycles;
  merge_adds += other.merge_adds;
  dmb_read_hits += other.dmb_read_hits;
  dmb_read_misses += other.dmb_read_misses;
  dmb_accumulate_hits += other.dmb_accumulate_hits;
  dmb_accumulate_misses += other.dmb_accumulate_misses;
  dmb_evictions += other.dmb_evictions;
  dmb_partial_spills += other.dmb_partial_spills;
  lsq_loads += other.lsq_loads;
  lsq_stores += other.lsq_stores;
  lsq_forwards += other.lsq_forwards;
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    dram_read_bytes[i] += other.dram_read_bytes[i];
    dram_write_bytes[i] += other.dram_write_bytes[i];
  }
  partial_bytes_now = other.partial_bytes_now;
  partial_bytes_peak = std::max(partial_bytes_peak, other.partial_bytes_peak);
}

SimStats scale_stats(const SimStats& s, double fraction) {
  HYMM_DCHECK(fraction >= 0.0);
  const auto scale = [fraction](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * fraction +
                                      0.5);
  };
  SimStats out = s;
  out.cycles = scale(s.cycles);
  out.skipped_cycles = scale(s.skipped_cycles);
  out.mac_ops = scale(s.mac_ops);
  out.alu_busy_cycles = scale(s.alu_busy_cycles);
  out.merge_adds = scale(s.merge_adds);
  out.dmb_read_hits = scale(s.dmb_read_hits);
  out.dmb_read_misses = scale(s.dmb_read_misses);
  out.dmb_accumulate_hits = scale(s.dmb_accumulate_hits);
  out.dmb_accumulate_misses = scale(s.dmb_accumulate_misses);
  out.dmb_evictions = scale(s.dmb_evictions);
  out.dmb_partial_spills = scale(s.dmb_partial_spills);
  out.lsq_loads = scale(s.lsq_loads);
  out.lsq_stores = scale(s.lsq_stores);
  out.lsq_forwards = scale(s.lsq_forwards);
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    out.dram_read_bytes[i] = scale(s.dram_read_bytes[i]);
    out.dram_write_bytes[i] = scale(s.dram_write_bytes[i]);
  }
  // Stall buckets scale like any additive counter, but the accounting
  // invariant sum(stall_cycles) == cycles must survive the per-bucket
  // rounding: absorb the rounding residue into the largest bucket.
  std::size_t largest = 0;
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    out.stall_cycles[i] = scale(s.stall_cycles[i]);
    if (out.stall_cycles[i] > out.stall_cycles[largest]) largest = i;
  }
  if (s.stall_total() == s.cycles) {
    const Cycle sum = out.stall_total();
    if (sum > out.cycles) {
      const Cycle excess = sum - out.cycles;
      HYMM_DCHECK(out.stall_cycles[largest] >= excess);
      out.stall_cycles[largest] -= std::min(out.stall_cycles[largest], excess);
    } else {
      out.stall_cycles[largest] += out.cycles - sum;
    }
  }
  return out;
}

SimStats stats_delta(const SimStats& after, const SimStats& before) {
  SimStats d = after;
  d.cycles -= before.cycles;
  d.skipped_cycles -= before.skipped_cycles;
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    d.stall_cycles[i] -= before.stall_cycles[i];
  }
  d.mac_ops -= before.mac_ops;
  d.alu_busy_cycles -= before.alu_busy_cycles;
  d.merge_adds -= before.merge_adds;
  d.dmb_read_hits -= before.dmb_read_hits;
  d.dmb_read_misses -= before.dmb_read_misses;
  d.dmb_accumulate_hits -= before.dmb_accumulate_hits;
  d.dmb_accumulate_misses -= before.dmb_accumulate_misses;
  d.dmb_evictions -= before.dmb_evictions;
  d.dmb_partial_spills -= before.dmb_partial_spills;
  d.lsq_loads -= before.lsq_loads;
  d.lsq_stores -= before.lsq_stores;
  d.lsq_forwards -= before.lsq_forwards;
  for (std::size_t i = 0; i < kTrafficClassCount; ++i) {
    d.dram_read_bytes[i] -= before.dram_read_bytes[i];
    d.dram_write_bytes[i] -= before.dram_write_bytes[i];
  }
  return d;
}

}  // namespace hymm
