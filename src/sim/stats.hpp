// Counters collected during simulation. One SimStats instance is
// shared by all component models of an accelerator run; phase results
// can be merged.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/stall.hpp"
#include "common/types.hpp"

namespace hymm {

// What a DRAM/DMB transaction carries. Drives the Fig 11 breakdown
// and the class-aware eviction policy of Section IV-D.
enum class TrafficClass : std::uint8_t {
  kAdjacency = 0,  // compressed A (pointers + indices + values)
  kFeatures,       // compressed X
  kWeights,        // dense W
  kCombined,       // dense XW (combination result)
  kOutput,         // dense AXW (final aggregation output)
  kPartial,        // spilled / readback partial outputs
};
inline constexpr std::size_t kTrafficClassCount = 6;

std::string to_string(TrafficClass cls);

struct SimStats {
  Cycle cycles = 0;

  // Cycle accounting: every simulated cycle is attributed to exactly
  // one StallCause by the engine that owned it (run_phase enforces
  // one bucket per loop iteration), so sum(stall_cycles) == cycles
  // for every phase and for the whole run. See DESIGN.md "Cycle
  // accounting" for the taxonomy and attribution priority.
  std::array<Cycle, kStallCauseCount> stall_cycles{};

  // Cycles the event-driven fast-forward bulk-accounted instead of
  // ticking one by one (a subset of `cycles`; purely diagnostic — the
  // stall buckets already include them).
  Cycle skipped_cycles = 0;

  // Compute.
  std::uint64_t mac_ops = 0;        // scalar x vector MACs retired
  Cycle alu_busy_cycles = 0;        // cycles with at least one PE op
  std::uint64_t merge_adds = 0;     // near/far merge additions

  // Dense matrix buffer.
  std::uint64_t dmb_read_hits = 0;
  std::uint64_t dmb_read_misses = 0;
  std::uint64_t dmb_accumulate_hits = 0;    // in-place partial merges
  std::uint64_t dmb_accumulate_misses = 0;  // partial line (re)allocated
  std::uint64_t dmb_evictions = 0;
  std::uint64_t dmb_partial_spills = 0;     // dirty partial evicted to DRAM

  // Load/store queue.
  std::uint64_t lsq_loads = 0;
  std::uint64_t lsq_stores = 0;
  std::uint64_t lsq_forwards = 0;  // store-to-load forwarding hits

  // DRAM traffic by class.
  std::array<std::uint64_t, kTrafficClassCount> dram_read_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> dram_write_bytes{};

  // Partial-output footprint (Fig 10): bytes of unmerged partial
  // output state, live in the DMB or spilled to DRAM.
  std::uint64_t partial_bytes_now = 0;
  std::uint64_t partial_bytes_peak = 0;

  // Attributes `n` cycles to `cause`.
  void account(StallCause cause, Cycle n = 1) {
    stall_cycles[static_cast<std::size_t>(cause)] += n;
  }

  Cycle stall(StallCause cause) const {
    return stall_cycles[static_cast<std::size_t>(cause)];
  }

  // Sum over all stall buckets; equals `cycles` when the accounting
  // invariant holds.
  Cycle stall_total() const;

  // Bottleneck verdict over the stall vector (memory-bound /
  // merge-bound / compute-bound).
  Bottleneck bottleneck() const { return classify_bottleneck(stall_cycles); }

  // Derived metrics -------------------------------------------------
  std::uint64_t dram_total_read_bytes() const;
  std::uint64_t dram_total_write_bytes() const;
  std::uint64_t dram_total_bytes() const;

  // Read-side hit rate of the DMB including accumulate lookups
  // (Fig 9's "proportion of requests where the target data is found
  // in the buffers").
  double dmb_hit_rate() const;

  double alu_utilization() const;

  // Fraction of the channel's peak bandwidth the run consumed.
  double dram_bandwidth_utilization(std::size_t bytes_per_cycle) const;

  void note_partial_bytes(std::int64_t delta);

  // Adds counters of another phase; cycles add up, peaks take max.
  void merge_phase(const SimStats& other);

  friend bool operator==(const SimStats&, const SimStats&) = default;
};

// Plain data: copied, compared and scaled member by member. The
// partial-footprint time series (Fig 10) lives in the observer
// (obs/timeseries.hpp), not here.
static_assert(std::is_trivially_copyable_v<SimStats>);

// Additive counter difference `after - before` (cycles included);
// non-additive fields (partial footprint and peak) keep `after`'s
// values.
SimStats stats_delta(const SimStats& after, const SimStats& before);

// Scales every additive counter by `fraction` >= 0 (rounded to
// nearest); non-additive fields (partial footprint and peak) are copied
// unchanged. Used with fractions in [0, 1] for the hybrid's
// per-region attribution of the shared region-2/3 RWP phase, where
// exact cycle-level attribution is ill-defined (region-2 and region-3
// non-zeros interleave within rows) — see DESIGN.md "Observability" —
// and with fractions > 1 by sampled mode (core/sampling.hpp) to
// extrapolate per-band counters to the whole phase.
SimStats scale_stats(const SimStats& s, double fraction);

}  // namespace hymm
