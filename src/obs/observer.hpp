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
///                with time series on, "TS DMB hit rate", "TS ALU
///                util" and "TS DRAM BW util" (windowed rates,
///                unrounded); phase spans on thread "phases", region
///                sub-phases on thread "regions".
///
/// One sampler serves two schedules: the counter tracks every
/// sample_interval cycles and the time series every
/// timeseries_interval cycles (with its decimation). MemorySystem
/// hands it a snapshot whenever the clock reaches next_sample(), and
/// MemorySystem::fast_forward_to back-fills every sample due inside a
/// skipped span with the values the per-cycle loop would have read, so
/// the trace, the series and the gauges are bit-identical under every
/// fast-forward mode.
///
/// A counter track holds its value until its next sample, so a sample
/// is written only when it differs from the last one written on that
/// track in the current run; the PE lanes are written, all together,
/// when any lane changed. begin_run forgets the last values, so every
/// process group opens with one sample per track.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
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

  /// Starts a new trace process group (one per simulated run, labelled
  /// e.g. "HyMM" or "RWP/cora") so several runs share one trace file.
  void begin_run(const std::string& label);
  int run_pid() const { return pid_; }  ///< current run's trace pid

  // --- Component hook points (cached handles; no map lookups) ---
  // dmb.evictions, dmb.partial_spills, lsq.forwards, pe.mac_ops,
  // dram.reads and dram.writes repeat SimStats fields, so no hook
  // counts them: Accelerator::run_layer adds each layer's totals.
  void on_dmb_eviction(Cycle now);   ///< DMB line evicted (trace instant)
  void on_partial_spill(Cycle now);  ///< partial line spilled (trace instant)
  void on_dmb_prefetch();            ///< DMB prefetch issued
  /// `count` loads the DMB rejected (or left parked) in LSQ ticks.
  void on_lsq_rejects(std::uint64_t count);
  void on_dram_line();  ///< DRAM line read or written (spatial only)
  void on_smq_refill();              ///< SMQ buffer refilled
  /// PE-array MAC retire; carries the engaged lane count so the
  /// spatial tracker can model per-lane busy/MAC occupancy.
  void on_pe_mac(std::size_t lanes);
  /// PE-array merge-add retire with the engaged lane count
  /// (pe.array_merge_adds; not the DMB accumulator's merges).
  void on_pe_merge(std::size_t lanes);
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

  /// Hands the current run's histograms over and starts fresh ones
  /// (run_experiment moves them into the ExperimentResult).
  RunHistograms take_run_histograms();

  // --- Windowed time-series telemetry (obs/timeseries.hpp) ---
  bool timeseries_enabled() const { return options_.timeseries; }  ///< on?

  /// Hands the finished series over and resets the schedule.
  TimeSeriesData take_timeseries();

  // --- The sampler: counter tracks, gauges and the time series ---
  /// Earliest cycle at which a counter-track or time-series sample is
  /// due.
  Cycle next_sample() const {
    return std::min(track_due_, options_.timeseries ? timeseries_.next_due()
                                                    : kNoEvent);
  }
  /// Serves every schedule due at s.cycle: first the counter tracks,
  /// gauges and the DMB occupancy histogram, then the time series
  /// (which, when tracing, also writes the windowed rate tracks).
  void sample(const TimeSeriesSample& s);
  /// The forced end-of-phase sample: the counter tracks always, the
  /// time series unless it already holds a sample at s.cycle. Both
  /// schedules restart from s.cycle.
  void sample_phase_end(const TimeSeriesSample& s);

  // --- Spatial attribution (obs/spatial.hpp) ---
  bool spatial_enabled() const { return options_.spatial; }  ///< on?
  /// The live tracker; engines report MACs, unfocus and cycles to it
  /// directly.
  SpatialTracker& spatial() { return spatial_; }

  /// Starts one layer, whose clock starts at cycle 0 (called by
  /// Accelerator::run_layer once the adjacency dimension is known):
  /// the counter-track schedule restarts and the spatial grid is
  /// sized for `nodes` and `pe_count` lanes.
  void begin_layer(NodeId nodes, std::size_t pe_count);
  /// Hands the finished spatial data over (run_experiment moves it
  /// into the ExperimentResult).
  SpatialData take_spatial();

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
    kTsDmbHitRate = kStallFirst + kStallCauseCount,  // real-valued
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
  // The counter-track half of a sample: gauges, the occupancy
  // histogram and, when tracing, the tracks that changed; reschedules.
  void record_tracks(const TimeSeriesSample& s);
  // The time-series half: records `s` and, when tracing, writes the
  // windowed rate tracks derived from the previous sample.
  void record_series(const TimeSeriesSample& s);
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
  Cycle track_due_ = 0;  // next counter-track sample
  int pid_ = 0;
  bool run_started_ = false;

  // Cached instrument handles (stable for the registry's lifetime).
  Counter* dmb_prefetches_;
  Counter* lsq_rejects_;
  Counter* smq_refills_;
  Counter* pe_array_merges_;
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
