/// @file
/// Windowed time-series telemetry: a
/// fixed-schedule sampler that snapshots per-component gauges and
/// cumulative counters every `interval` simulated cycles into a
/// capacity-bounded series. When the capacity is reached the series
/// thins to every other sample and doubles the interval, so memory
/// stays bounded for arbitrarily long runs. Its `partial_bytes`
/// column is the Fig 10 footprint over time
/// (bench/fig10_partial_outputs).
///
/// Determinism contract: the sampling schedule is driven purely by the
/// simulated clock — MemorySystem records a sample whenever a tick
/// reaches next_due(), and MemorySystem::fast_forward_to replays every
/// due sample inside a skipped span with the exact per-cycle values
/// the legacy loop would have seen (a quiescent span only advances the
/// charged stall bucket by one per cycle; everything else is
/// constant). Series are therefore bit-identical between fast-forward
/// and HYMM_NO_FASTFWD runs, and across sweep thread counts (each run
/// has its own Observer-owned TimeSeries).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stall.hpp"
#include "common/types.hpp"

namespace hymm {

/// One snapshot of the memory system: instantaneous occupancy gauges
/// plus cumulative counters (windowed rates — DMB hit rate, DRAM
/// bandwidth, ALU utilization, stall mix — are differences between
/// consecutive samples).
struct TimeSeriesSample {
  Cycle cycle = 0;  ///< simulated cycle the snapshot was taken at

  // Instantaneous gauges.
  std::uint64_t lsq_depth = 0;      ///< pending loads + stores
  std::uint64_t smq_backlog = 0;    ///< decoded entries awaiting consumption
  std::uint64_t dmb_lines = 0;      ///< resident buffer lines
  std::uint64_t partial_bytes = 0;  ///< live partial-output footprint

  // Cumulative counters (monotone within a run).
  std::uint64_t dmb_hits = 0;    ///< read + accumulate hits
  std::uint64_t dmb_misses = 0;  ///< read + accumulate misses
  std::uint64_t dram_bytes = 0;  ///< total DRAM traffic, all classes
  std::uint64_t alu_busy_cycles = 0;  ///< cumulative busy PE cycles
  std::uint64_t mac_ops = 0;          ///< cumulative retired MACs
  std::array<Cycle, kStallCauseCount> stall_cycles{};  ///< cycle accounting

  /// Configured DRAM peak (constant per run; carried so trace emission
  /// can derive bandwidth utilization without reaching into config).
  std::uint64_t dram_peak_bytes_per_cycle = 0;

  bool operator==(const TimeSeriesSample&) const = default;  ///< memberwise
};

/// A finished series as stored in an ExperimentResult and the JSON run
/// report ("timeseries" object, since schema hymm-run-report/5).
struct TimeSeriesData {
  Cycle interval = 0;  ///< final sampling interval (after decimation)
  std::vector<TimeSeriesSample> samples;  ///< increasing cycle order
  bool empty() const { return samples.empty(); }  ///< no samples
};

/// The live ring-buffered series one Observer owns. The schedule is
/// explicit (next_due / interval) so MemorySystem can drive sampling
/// from both the per-cycle tick path and the fast-forward replay path.
class TimeSeries {
 public:
  /// Default maximum sample count before decimation kicks in.
  static constexpr std::size_t kDefaultCapacity = 512;

  /// Samples every `interval` cycles into at most `capacity` slots.
  explicit TimeSeries(Cycle interval = 256,
                      std::size_t capacity = kDefaultCapacity);

  /// Next cycle at or after which a sample is due.
  Cycle next_due() const { return next_due_; }
  Cycle interval() const { return interval_; }  ///< current interval

  /// Appends a sample (requires s.cycle >= next_due()) and advances the
  /// schedule to s.cycle + interval(). Thins to every other sample and
  /// doubles the interval when the capacity is reached.
  void record(const TimeSeriesSample& s);

  /// Off-schedule sample (end of a phase): records `s` unless a sample
  /// for the same cycle was already taken, then realigns the schedule.
  void record_forced(const TimeSeriesSample& s);

  /// Samples recorded so far, increasing cycle order.
  const std::vector<TimeSeriesSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }  ///< no samples yet

  /// Moves the series out (for an ExperimentResult) and resets the
  /// schedule for the next run.
  TimeSeriesData take();

  /// Clears samples and restores the initial interval and schedule.
  void reset();

 private:
  void append(const TimeSeriesSample& s);

  Cycle initial_interval_;
  Cycle interval_;
  Cycle next_due_ = 0;
  std::size_t capacity_;
  std::vector<TimeSeriesSample> samples_;
  bool has_last_ = false;
  Cycle last_cycle_ = 0;  // last recorded cycle (survives thinning)
};

}  // namespace hymm
