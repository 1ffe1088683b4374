#include "obs/observer.hpp"

#include <bit>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace hymm {

Observer::Observer(ObserverOptions options)
    : options_(options),
      timeseries_(options.timeseries_interval > 0
                      ? options.timeseries_interval
                      : Cycle{1}),
      spatial_(options.spatial, options.spatial_tile) {
  HYMM_CHECK_MSG(options.sample_interval > 0,
                 "zero counter-track sample interval");
  // Filled from SimStats once per layer (Accelerator::run_layer);
  // registered here so the report always carries the keys.
  for (const char* name : {"dmb.evictions", "dmb.partial_spills",
                           "lsq.forwards", "pe.mac_ops", "dram.reads",
                           "dram.writes"}) {
    metrics_.counter(name);
  }
  dmb_prefetches_ = &metrics_.counter("dmb.prefetches");
  lsq_rejects_ = &metrics_.counter("lsq.load_rejects");
  smq_refills_ = &metrics_.counter("smq.refills");
  pe_array_merges_ = &metrics_.counter("pe.array_merge_adds");
  dmb_occupancy_gauge_ = &metrics_.gauge("dmb.occupancy_lines");
  partial_bytes_gauge_ = &metrics_.gauge("partial.bytes");
  lsq_depth_gauge_ = &metrics_.gauge("lsq.depth");
  smq_backlog_gauge_ = &metrics_.gauge("smq.backlog");
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    stall_gauges_[i] = &metrics_.gauge(
        std::string("stall.") +
        stall_cause_key(static_cast<StallCause>(i)));
  }
  // Row degree spans isolated nodes (0–1) to social-network hubs.
  row_degree_ = &metrics_.histogram("smq.row_degree", pow2_bounds(1, 4096));
  merge_depth_ =
      &metrics_.histogram("op.merge_queue_depth", pow2_bounds(1, 1 << 20));
  engine_window_ =
      &metrics_.histogram("engine.window_occupancy", pow2_bounds(1, 256));
  dmb_occupancy_hist_ =
      &metrics_.histogram("dmb.set_occupancy", pow2_bounds(16, 1 << 16));

  eviction_id_ = trace_.intern("eviction");
  partial_spill_id_ = trace_.intern("partial spill");
  const NameId lines = trace_.intern("lines");
  const NameId bytes = trace_.intern("bytes");
  const NameId entries = trace_.intern("entries");
  const NameId cycles = trace_.intern("cycles");
  const NameId percent = trace_.intern("%");
  const auto track = [&](Track t, std::string_view name, NameId series) {
    tracks_[t].name = trace_.intern(name);
    tracks_[t].series = series;
  };
  track(kDmbOccupancy, "DMB occupancy", lines);
  track(kPartialBytes, "partial bytes", bytes);
  track(kLsqDepth, "LSQ depth", entries);
  track(kSmqBacklog, "SMQ backlog", entries);
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    track(static_cast<Track>(kStallFirst + i),
          std::string("stall ") + stall_cause_key(static_cast<StallCause>(i)),
          cycles);
  }
  track(kTsDmbHitRate, "TS DMB hit rate", percent);
  track(kTsAluUtil, "TS ALU util", percent);
  track(kTsDramBwUtil, "TS DRAM BW util", percent);
  pe_busy_track_ = trace_.intern("PE busy");
}

void Observer::begin_run(const std::string& label) {
  if (run_started_) ++pid_;
  run_started_ = true;
  // Per-run instruments start clean even if the previous run's series
  // was never taken (e.g. a driver that only wanted the trace).
  timeseries_.reset();
  spatial_.reset();
  run_hist_ = RunHistograms{};
  ts_has_prev_ = false;
  for (CounterTrack& t : tracks_) t.open = false;
  pe_last_.clear();
  if (!options_.trace) return;
  trace_.set_process_name(pid_, label);
  trace_.set_thread_name(pid_, 0, "phases");
  trace_.set_thread_name(pid_, 1, "regions");
}

void Observer::on_dmb_eviction(Cycle now) {
  if (options_.trace) trace_.instant(pid_, eviction_id_, now);
}

void Observer::on_partial_spill(Cycle now) {
  if (options_.trace) trace_.instant(pid_, partial_spill_id_, now);
}

void Observer::on_dmb_prefetch() { dmb_prefetches_->add(); }
void Observer::on_lsq_rejects(std::uint64_t count) {
  lsq_rejects_->add(count);
}

void Observer::on_dram_line() {
  // Every DRAM transfer moves exactly one line; attributing here
  // keeps the tile-grid byte sum exact by construction.
  spatial_.on_dram_bytes(kLineBytes);
}

void Observer::on_smq_refill() { smq_refills_->add(); }

void Observer::on_pe_mac(std::size_t lanes) {
  spatial_.on_pe_op(lanes, /*is_mac=*/true);
}

void Observer::on_pe_merge(std::size_t lanes) {
  pe_array_merges_->add();
  spatial_.on_pe_op(lanes, /*is_mac=*/false);
}

void Observer::observe_row_degree(std::uint64_t nnz) {
  row_degree_->observe(nnz);
}

void Observer::observe_merge_depth(std::uint64_t records_outstanding) {
  merge_depth_->observe(records_outstanding);
}

void Observer::observe_engine_window(std::uint64_t pending) {
  engine_window_->observe(pending);
}

void Observer::observe_load_latency(Cycle cycles) {
  run_hist_.lsq_load_latency.observe(cycles);
}

void Observer::observe_dram_read_latency(Cycle cycles) {
  run_hist_.dram_read_latency.observe(cycles);
}

void Observer::observe_dmb_fill_latency(Cycle cycles) {
  run_hist_.dmb_fill_latency.observe(cycles);
}

RunHistograms Observer::take_run_histograms() {
  RunHistograms out = std::move(run_hist_);
  run_hist_ = RunHistograms{};
  return out;
}

void Observer::sample(const TimeSeriesSample& s) {
  if (s.cycle >= track_due_) record_tracks(s);
  if (options_.timeseries && s.cycle >= timeseries_.next_due()) {
    record_series(s);
  }
}

void Observer::sample_phase_end(const TimeSeriesSample& s) {
  record_tracks(s);
  if (options_.timeseries && !(ts_has_prev_ && s.cycle == ts_prev_.cycle)) {
    record_series(s);
  }
}

TimeSeriesData Observer::take_timeseries() {
  ts_has_prev_ = false;
  return timeseries_.take();
}

void Observer::begin_layer(NodeId nodes, std::size_t pe_count) {
  track_due_ = 0;
  spatial_.begin(nodes, pe_count);
}

SpatialData Observer::take_spatial() { return spatial_.take(); }

void Observer::emit(Track track, Cycle now, std::uint64_t value) {
  CounterTrack& t = tracks_[track];
  if (t.open && t.last == value) return;
  t.open = true;
  t.last = value;
  trace_.counter(pid_, t.name, t.series, now, value);
}

void Observer::emit_real(Track track, Cycle now, double value) {
  CounterTrack& t = tracks_[track];
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if (t.open && t.last == bits) return;
  t.open = true;
  t.last = bits;
  trace_.real_counter(pid_, t.name, t.series, now, value);
}

void Observer::emit_pe_lanes(Cycle now,
                             const std::vector<std::uint64_t>& lanes) {
  if (lanes.empty() || lanes == pe_last_) return;
  if (pe_lane_set_size_ != lanes.size()) {
    // Series keys "00", "01", ...: one per lane, interned once.
    std::vector<NameId> keys;
    char key[std::numeric_limits<std::size_t>::digits10 + 2];
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      std::snprintf(key, sizeof key, "%02zu", i);
      keys.push_back(trace_.intern(key));
    }
    pe_lane_set_ = trace_.series_set(keys);
    pe_lane_set_size_ = lanes.size();
  }
  pe_last_ = lanes;
  trace_.multi_counter(pid_, pe_busy_track_, pe_lane_set_, now, lanes);
}

void Observer::record_series(const TimeSeriesSample& s) {
  timeseries_.record(s);
  if (options_.trace && ts_has_prev_ && s.cycle > ts_prev_.cycle) {
    // Windowed rates over the span since the previous sample, in
    // percent. The trace keeps its own prev copy so storage decimation
    // in the TimeSeries never changes what the counter tracks show.
    const double span = static_cast<double>(s.cycle - ts_prev_.cycle);
    const std::uint64_t hits = s.dmb_hits - ts_prev_.dmb_hits;
    const std::uint64_t misses = s.dmb_misses - ts_prev_.dmb_misses;
    const double hit_rate =
        (hits + misses) == 0 ? 0.0
                             : 100.0 * static_cast<double>(hits) /
                                   static_cast<double>(hits + misses);
    emit_real(kTsDmbHitRate, s.cycle, hit_rate);
    emit_real(kTsAluUtil, s.cycle,
              100.0 *
                  static_cast<double>(s.alu_busy_cycles -
                                      ts_prev_.alu_busy_cycles) /
                  span);
    if (s.dram_peak_bytes_per_cycle > 0) {
      emit_real(
          kTsDramBwUtil, s.cycle,
          100.0 * static_cast<double>(s.dram_bytes - ts_prev_.dram_bytes) /
              (span * static_cast<double>(s.dram_peak_bytes_per_cycle)));
    }
  }
  ts_prev_ = s;
  ts_has_prev_ = true;
}

void Observer::record_tracks(const TimeSeriesSample& s) {
  const Cycle now = s.cycle;
  track_due_ = now + options_.sample_interval;
  dmb_occupancy_gauge_->set(static_cast<std::int64_t>(s.dmb_lines));
  partial_bytes_gauge_->set(static_cast<std::int64_t>(s.partial_bytes));
  lsq_depth_gauge_->set(static_cast<std::int64_t>(s.lsq_depth));
  smq_backlog_gauge_->set(static_cast<std::int64_t>(s.smq_backlog));
  dmb_occupancy_hist_->observe(s.dmb_lines);
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    stall_gauges_[i]->set(static_cast<std::int64_t>(s.stall_cycles[i]));
  }
  if (!options_.trace) return;
  emit(kDmbOccupancy, now, s.dmb_lines);
  emit(kPartialBytes, now, s.partial_bytes);
  emit(kLsqDepth, now, s.lsq_depth);
  emit(kSmqBacklog, now, s.smq_backlog);
  // One cumulative counter series per stall bucket: in the Perfetto
  // UI the slope of "stall <cause>" is the fraction of cycles that
  // cause is costing right now.
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    emit(static_cast<Track>(kStallFirst + i), now, s.stall_cycles[i]);
  }
  // One cumulative series per PE lane: in the Perfetto UI the slope of
  // "PE busy NN" is that lane's utilization right now.
  if (spatial_.active()) emit_pe_lanes(now, spatial_.data().lane_busy_cycles);
}

void Observer::phase_span(const std::string& name, Cycle begin, Cycle end) {
  run_hist_.phase_cycles.observe(end - begin);
  if (options_.trace) {
    trace_.duration(pid_, 0, trace_.intern(name), begin, end);
  }
}

void Observer::region_span(const std::string& name, Cycle begin, Cycle end) {
  run_hist_.phase_cycles.observe(end - begin);
  if (options_.trace) {
    trace_.duration(pid_, 1, trace_.intern(name), begin, end);
  }
}

}  // namespace hymm
