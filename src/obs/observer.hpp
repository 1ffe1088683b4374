/// @file
/// Observability context: one Observer carries the metrics registry
/// and the trace writer for a set of simulated runs. Hardware
/// component models hold a nullable Observer* and report events
/// through the HYMM_OBS macro (obs/hooks.hpp); with no observer
/// attached the hooks cost one pointer compare, and the observer never
/// feeds back into timing, so simulated cycle counts are bit-identical
/// with observability on or off.
///
/// Naming scheme (documented in DESIGN.md "Observability"):
///   counters    <component>.<event>    e.g. dmb.evictions
///   gauges      <component>.<level>    e.g. lsq.depth
///   histograms  <component>.<dist>     e.g. smq.row_degree
///   trace tracks "DMB occupancy", "partial bytes", "LSQ depth",
///                "SMQ backlog", "stall <cause>" (cumulative cycles),
///                "PE busy" (one multi-series event, args keyed by
///                lane "00", "01", ...; cumulative busy cycles) and,
///                with time series on, "TS ..." (the three windowed
///                rates unrounded); phase spans on thread "phases",
///                region sub-phases on thread "regions".
///
/// A counter track holds its value until its next sample, so a sample
/// is written only when it differs from the last one written on that
/// track in the current run; the PE lanes are written, all together,
/// when any lane changed. begin_run forgets the last values, so every
/// process group opens with one sample per track.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/stall.hpp"
#include "common/types.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/spatial.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace hymm {

/// What one Observer collects.
struct ObserverOptions {
  /// Collect trace events (the metrics registry is always on once an
  /// observer is attached).
  bool trace = false;
  /// Cycles between counter-track samples; bounds trace size on long
  /// runs. Sampling reads state, never mutates it.
  Cycle sample_interval = 64;
  /// Windowed time-series telemetry (obs/timeseries.hpp): snapshot the
  /// per-component gauges every timeseries_interval cycles. Off by
  /// default — the series rides --timeseries / HYMM_TIMESERIES.
  bool timeseries = false;
  Cycle timeseries_interval = 256;  ///< cycles between snapshots
  /// Spatial attribution (obs/spatial.hpp): per-PE-lane busy/MAC
  /// counters and the per-tile heatmap over the adjacency. Off by
  /// default — rides --spatial / HYMM_SPATIAL.
  bool spatial = false;
  /// Explicit tile edge in nodes; 0 picks ~nodes/32 automatically.
  NodeId spatial_tile = 0;
};

/// The observability context one set of runs reports into.
class Observer {
 public:
  /// Builds the registry, trace writer and trackers per `options`.
  explicit Observer(ObserverOptions options = {});

  MetricsRegistry& metrics() { return metrics_; }  ///< instrument store
  const MetricsRegistry& metrics() const { return metrics_; }  ///< instrument store
  TraceWriter& trace() { return trace_; }  ///< trace event buffer
  const TraceWriter& trace() const { return trace_; }  ///< trace event buffer

  bool tracing() const { return options_.trace; }  ///< trace collection on
  /// Cycles between counter-track samples.
  Cycle sample_interval() const { return options_.sample_interval; }

  /// Starts a new trace process group (one per simulated run, labelled
  /// e.g. "HyMM" or "RWP/cora") so several runs share one trace file.
  void begin_run(const std::string& label);
  int run_pid() const { return pid_; }  ///< current run's trace pid

  // --- Component hook points (cached handles; no map lookups) ---
  void on_dmb_eviction(Cycle now);   ///< DMB line evicted
  void on_partial_spill(Cycle now);  ///< partial-output line spilled
  void on_dmb_prefetch();            ///< DMB prefetch issued
  void on_lsq_forward();             ///< store-to-load forward
  /// `count` loads the DMB rejected (or left parked) in one LSQ tick.
  void on_lsq_rejects(std::uint64_t count);
  void on_dram_read();               ///< DRAM read request issued
  void on_dram_write();              ///< DRAM write request issued
  void on_smq_refill();              ///< SMQ buffer refilled
  /// PE-array MAC retire; carries the engaged lane count so the
  /// spatial tracker can model per-lane busy/MAC occupancy.
  void on_pe_mac(std::size_t lanes);
  /// PE-array merge-add retire with the engaged lane count.
  void on_pe_merge(std::size_t lanes);
  /// DMB read/accumulate hit, attributed to the focused tile.
  void on_dmb_hit();
  /// DMB read/accumulate miss, attributed to the focused tile.
  void on_dmb_miss();
  void observe_row_degree(std::uint64_t nnz);  ///< smq.row_degree sample
  /// Merge-stage records outstanding (op.merge_queue_depth sample).
  void observe_merge_depth(std::uint64_t records_outstanding);
  /// Engine in-flight window occupancy sample.
  void observe_engine_window(std::uint64_t pending);

  // --- Per-run latency histograms (obs/histogram.hpp) ---
  /// LSQ load allocation -> data ready (forwards are never recorded:
  /// they are satisfied without a memory request).
  void observe_load_latency(Cycle cycles);
  /// DRAM read issue -> completion delivery.
  void observe_dram_read_latency(Cycle cycles);
  /// DMB MSHR allocation -> fill install.
  void observe_dmb_fill_latency(Cycle cycles);

  /// The current run's latency histograms.
  const RunHistograms& run_histograms() const { return run_hist_; }
  /// Hands the current run's histograms over and starts fresh ones
  /// (run_experiment moves them into the ExperimentResult).
  RunHistograms take_run_histograms();

  // --- Windowed time-series telemetry (obs/timeseries.hpp) ---
  bool timeseries_enabled() const { return options_.timeseries; }  ///< on?
  TimeSeries& timeseries() { return timeseries_; }  ///< live series
  const TimeSeries& timeseries() const { return timeseries_; }  ///< live series

  /// Records one scheduled sample (called by MemorySystem when a tick
  /// reaches TimeSeries::next_due(), and by the fast-forward replay
  /// for every due cycle inside a skipped span) and, when tracing,
  /// emits the windowed utilization counter tracks derived from the
  /// previous sample.
  void timeseries_record(const TimeSeriesSample& s);
  /// Off-schedule end-of-phase sample (deduplicated per cycle).
  void timeseries_force(const TimeSeriesSample& s);
  /// Hands the finished series over and resets the schedule.
  TimeSeriesData take_timeseries();

  // --- Spatial attribution (obs/spatial.hpp) ---
  bool spatial_enabled() const { return options_.spatial; }  ///< on?
  SpatialTracker& spatial() { return spatial_; }  ///< live tracker
  const SpatialTracker& spatial() const { return spatial_; }  ///< live tracker

  /// Sizes the tracker's grid for one layer run (called by
  /// Accelerator::run_layer once the adjacency dimension is known).
  void spatial_begin(NodeId nodes, std::size_t pe_count);
  /// Engine hook: a MAC retired for adjacency nonzero (row, col) in
  /// `region`; moves the tile focus.
  void spatial_mac(NodeId row, NodeId col, SpatialRegion region,
                   bool first_chunk);
  /// Engine hook: subsequent work is not tile-attributable (merge /
  /// flush / drain); lands in the residual bucket.
  void spatial_unfocus();
  /// Attributes `n` cycles to the focused tile (run_phase per cycle,
  /// fast_forward_to per skipped span).
  void spatial_cycles(std::uint64_t n);
  /// Hands the finished spatial data over (run_experiment moves it
  /// into the ExperimentResult).
  SpatialData take_spatial();

  /// Counter-track sample, called by MemorySystem every
  /// sample_interval cycles. `stall_cycles` is the cumulative
  /// per-cause cycle-accounting vector (kStallCauseCount entries).
  /// Writes only the tracks whose value changed (see the file comment).
  void sample_tracks(Cycle now, std::uint64_t dmb_lines,
                     std::uint64_t partial_bytes, std::uint64_t lsq_depth,
                     std::uint64_t smq_backlog,
                     std::span<const Cycle> stall_cycles);

  /// Duration event for a whole phase (combination/aggregation).
  void phase_span(const std::string& name, Cycle begin, Cycle end);
  /// Duration event for a hybrid region sub-phase.
  void region_span(const std::string& name, Cycle begin, Cycle end);

 private:
  using NameId = TraceWriter::NameId;

  // Counter tracks with one series each, indexed into tracks_.
  enum Track : std::size_t {
    kDmbOccupancy,
    kPartialBytes,
    kLsqDepth,
    kSmqBacklog,
    kStallFirst,  // one per StallCause, in enum order
    kTsLsqDepth = kStallFirst + kStallCauseCount,
    kTsSmqBacklog,
    kTsDmbLines,
    kTsPartialBytes,
    kTsDmbHitRate,  // real-valued
    kTsAluUtil,     // real-valued
    kTsDramBwUtil,  // real-valued
    kTrackCount
  };
  struct CounterTrack {
    NameId name = 0;
    NameId series = 0;
    bool open = false;       // written since begin_run
    std::uint64_t last = 0;  // last value written (a double's bits)
  };

  // Writes `value` on `track` unless it equals the track's last value.
  void emit(Track track, Cycle now, std::uint64_t value);
  void emit_real(Track track, Cycle now, double value);
  // Emits the derived windowed counter tracks for one recorded
  // sample (trace builds only).
  void trace_timeseries_sample(const TimeSeriesSample& s);
  // The "PE busy" sample: every lane, when any lane changed.
  void emit_pe_lanes(Cycle now, const std::vector<std::uint64_t>& lanes);

  ObserverOptions options_;
  MetricsRegistry metrics_;
  TraceWriter trace_;
  TimeSeries timeseries_;
  SpatialTracker spatial_;
  RunHistograms run_hist_;
  TimeSeriesSample ts_prev_;
  bool ts_has_prev_ = false;
  int pid_ = 0;
  bool run_started_ = false;

  // Cached instrument handles (stable for the registry's lifetime).
  Counter* dmb_evictions_;
  Counter* dmb_partial_spills_;
  Counter* dmb_prefetches_;
  Counter* lsq_forwards_;
  Counter* lsq_rejects_;
  Counter* dram_reads_;
  Counter* dram_writes_;
  Counter* smq_refills_;
  Counter* pe_macs_;
  Counter* pe_merges_;
  Gauge* dmb_occupancy_gauge_;
  Gauge* partial_bytes_gauge_;
  Gauge* lsq_depth_gauge_;
  Gauge* smq_backlog_gauge_;
  std::array<Gauge*, kStallCauseCount> stall_gauges_{};
  Histogram* row_degree_;
  Histogram* merge_depth_;
  Histogram* engine_window_;
  Histogram* dmb_occupancy_hist_;

  // Interned trace names, so no hot-path event builds a string or
  // looks one up.
  NameId eviction_id_;
  NameId partial_spill_id_;
  std::array<CounterTrack, kTrackCount> tracks_{};
  NameId pe_busy_track_;
  TraceWriter::SeriesSetId pe_lane_set_ = 0;
  std::size_t pe_lane_set_size_ = 0;  // lanes in pe_lane_set_; 0: none
  std::vector<std::uint64_t> pe_last_;  // last lanes written; empty: none
};

}  // namespace hymm
