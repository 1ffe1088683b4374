#include "core/report.hpp"

#include <ostream>
#include <sstream>

#include "common/table.hpp"
#include "common/version.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hymm {

namespace {

// "cause=12.3%" terms for every non-zero stall bucket, largest first
// is not needed — taxonomy order keeps related causes adjacent.
std::string stall_breakdown_string(const SimStats& stats) {
  const Cycle total = stats.stall_total();
  if (total == 0) return "none";
  std::ostringstream oss;
  bool first = true;
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    const Cycle cycles = stats.stall_cycles[i];
    if (cycles == 0) continue;
    if (!first) oss << ", ";
    first = false;
    oss << stall_cause_key(static_cast<StallCause>(i)) << '='
        << Table::fmt_percent(
               static_cast<double>(cycles) / static_cast<double>(total), 1);
  }
  return oss.str();
}

}  // namespace

void print_stats_summary(const SimStats& stats, std::ostream& out,
                         const std::string& indent,
                         std::uint64_t peak_bytes_per_cycle) {
  out << indent << "cycles:          " << stats.cycles << '\n'
      << indent << "MAC ops:         " << stats.mac_ops << '\n'
      << indent << "ALU utilization: "
      << Table::fmt_percent(stats.alu_utilization(), 1) << '\n'
      << indent << "DMB hit rate:    "
      << Table::fmt_percent(stats.dmb_hit_rate(), 1) << " ("
      << stats.dmb_read_hits + stats.dmb_accumulate_hits << " hits / "
      << stats.dmb_read_misses + stats.dmb_accumulate_misses
      << " misses)\n"
      << indent << "LSQ forwards:    " << stats.lsq_forwards << '\n'
      << indent << "partial spills:  " << stats.dmb_partial_spills << '\n'
      << indent << "partial peak:    "
      << Table::fmt_bytes(static_cast<double>(stats.partial_bytes_peak))
      << '\n'
      << indent << "DRAM traffic:    "
      << Table::fmt_bytes(static_cast<double>(stats.dram_total_bytes()))
      << " (" << dram_breakdown_string(stats) << ")\n";
  if (stats.stall_total() > 0) {
    out << indent << "cycle breakdown: " << stall_breakdown_string(stats)
        << '\n'
        << indent << "bottleneck:      " << to_string(stats.bottleneck());
    if (peak_bytes_per_cycle > 0 && stats.cycles > 0) {
      out << " (DRAM bandwidth roofline: "
          << Table::fmt_percent(
                 stats.dram_bandwidth_utilization(peak_bytes_per_cycle), 1)
          << " of " << peak_bytes_per_cycle << "B/cycle)";
    }
    out << '\n';
  }
}

std::string dram_breakdown_string(const SimStats& stats) {
  std::ostringstream oss;
  bool first = true;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    const std::uint64_t bytes =
        stats.dram_read_bytes[c] + stats.dram_write_bytes[c];
    if (bytes == 0) continue;
    if (!first) oss << ", ";
    first = false;
    oss << to_string(static_cast<TrafficClass>(c)) << '='
        << Table::fmt_bytes(static_cast<double>(bytes));
  }
  return first ? "none" : oss.str();
}

std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void write_results_csv(std::span<const ExperimentResult> results,
                       std::ostream& out) {
  out << "dataset,scale,flow,cycles,combination_cycles,aggregation_cycles,"
         "mac_ops,alu_utilization,dmb_hit_rate,partial_bytes_peak,"
         "preprocess_ms";
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    out << ",read_" << to_string(static_cast<TrafficClass>(c));
    out << ",write_" << to_string(static_cast<TrafficClass>(c));
  }
  out << ",dram_total_bytes,verified,max_abs_err";
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    out << ",stall_" << stall_cause_key(static_cast<StallCause>(i));
  }
  out << ",bottleneck,dram_bw_utilization";
  // Latency quantiles (obs/histogram.hpp); all zero when the run had
  // no observer attached.
  out << ",lsq_lat_p50,lsq_lat_p99,lsq_lat_max"
         ",dram_lat_p50,dram_lat_p99,dram_lat_max";
  // Load-imbalance summary (obs/spatial.hpp); all zero unless the run
  // collected spatial attribution (--spatial / HYMM_SPATIAL).
  out << ",pe_max_over_mean,pe_cov,pe_gini"
         ",rowband_max_over_mean,rowband_cov,rowband_gini\n";
  for (const ExperimentResult& r : results) {
    const SimStats& s = r.stats;
    out << csv_quote(r.abbrev) << ',' << r.scale << ','
        << csv_quote(to_string(r.flow)) << ',' << s.cycles << ','
        << r.combination_stats.cycles << ',' << r.aggregation_stats.cycles
        << ',' << s.mac_ops << ',' << s.alu_utilization() << ','
        << s.dmb_hit_rate() << ',' << s.partial_bytes_peak << ','
        << r.preprocess_ms;
    for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
      out << ',' << s.dram_read_bytes[c] << ',' << s.dram_write_bytes[c];
    }
    out << ',' << s.dram_total_bytes() << ',' << (r.verified ? 1 : 0) << ','
        << r.max_abs_err;
    for (std::size_t i = 0; i < kStallCauseCount; ++i) {
      out << ',' << s.stall_cycles[i];
    }
    out << ',' << csv_quote(to_string(s.bottleneck())) << ','
        << s.dram_bandwidth_utilization(r.dram_peak_bytes_per_cycle);
    const LogHistogram& lsq = r.histograms.lsq_load_latency;
    const LogHistogram& dram = r.histograms.dram_read_latency;
    out << ',' << lsq.quantile(0.5) << ',' << lsq.quantile(0.99) << ','
        << lsq.max() << ',' << dram.quantile(0.5) << ','
        << dram.quantile(0.99) << ',' << dram.max();
    ImbalanceStats pe_imb;
    ImbalanceStats band_imb;
    if (!r.spatial.empty()) {
      pe_imb = compute_imbalance(r.spatial.lane_busy_cycles);
      const std::vector<std::uint64_t> bands = r.spatial.row_band_cycles();
      band_imb = compute_imbalance(bands);
    }
    out << ',' << pe_imb.max_over_mean << ',' << pe_imb.cov << ','
        << pe_imb.gini << ',' << band_imb.max_over_mean << ','
        << band_imb.cov << ',' << band_imb.gini << '\n';
  }
}

namespace {

void write_traffic_json(JsonWriter& w, std::string_view name,
                        const std::array<std::uint64_t, kTrafficClassCount>&
                            bytes_by_class) {
  w.key(name);
  w.begin_object();
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    w.field(to_string(static_cast<TrafficClass>(c)), bytes_by_class[c]);
  }
  w.end_object();
}

void write_stats_json(JsonWriter& w, const SimStats& s) {
  w.begin_object();
  w.field("cycles", std::uint64_t{s.cycles});
  w.field("mac_ops", s.mac_ops);
  w.field("alu_busy_cycles", std::uint64_t{s.alu_busy_cycles});
  w.field("merge_adds", s.merge_adds);
  w.field("dmb_read_hits", s.dmb_read_hits);
  w.field("dmb_read_misses", s.dmb_read_misses);
  w.field("dmb_accumulate_hits", s.dmb_accumulate_hits);
  w.field("dmb_accumulate_misses", s.dmb_accumulate_misses);
  w.field("dmb_evictions", s.dmb_evictions);
  w.field("dmb_partial_spills", s.dmb_partial_spills);
  w.field("lsq_loads", s.lsq_loads);
  w.field("lsq_stores", s.lsq_stores);
  w.field("lsq_forwards", s.lsq_forwards);
  write_traffic_json(w, "dram_read_bytes", s.dram_read_bytes);
  write_traffic_json(w, "dram_write_bytes", s.dram_write_bytes);
  w.field("dram_total_bytes", s.dram_total_bytes());
  w.field("partial_bytes_peak", s.partial_bytes_peak);
  w.field("alu_utilization", s.alu_utilization());
  w.field("dmb_hit_rate", s.dmb_hit_rate());
  w.key("stalls");
  w.begin_object();
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    w.field(stall_cause_key(static_cast<StallCause>(i)),
            std::uint64_t{s.stall_cycles[i]});
  }
  w.end_object();
  w.field("stall_total", std::uint64_t{s.stall_total()});
  // Cycles covered by the event-driven fast-forward (docs/architecture.md);
  // a subset of `cycles`, already included in the stall buckets.
  w.field("skipped_cycles", std::uint64_t{s.skipped_cycles});
  w.field("bottleneck", to_string(s.bottleneck()));
  w.end_object();
}

// How the measured search chose the tiling threshold (docs/tuning.md).
// Only emitted when the tuner actually ran (tune.enabled).
void write_tune_json(JsonWriter& w, const TuneInfo& t) {
  w.begin_object();
  w.field("fixed_threshold", t.fixed_threshold);
  w.field("threshold", t.threshold);
  w.field("simulations", t.simulations);
  w.field("config_hash", t.config_hash);
  w.key("candidates");
  w.begin_array();
  for (const TuneCandidateInfo& c : t.candidates) {
    w.begin_object();
    w.field("threshold", c.threshold);
    w.field("measured_cycles", c.measured_cycles);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// Schema /5: bounded-error quantile summary of one latency/duration
// histogram (docs/schemas.md "histograms").
void write_histogram_json(JsonWriter& w, const LogHistogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("min", h.min());
  w.field("max", h.max());
  w.field("mean", h.mean());
  w.field("p50", h.quantile(0.5));
  w.field("p90", h.quantile(0.9));
  w.field("p99", h.quantile(0.99));
  w.end_object();
}

void write_histograms_json(JsonWriter& w, const RunHistograms& h) {
  w.begin_object();
  w.key("lsq_load_latency");
  write_histogram_json(w, h.lsq_load_latency);
  w.key("dram_read_latency");
  write_histogram_json(w, h.dram_read_latency);
  w.key("dmb_fill_latency");
  write_histogram_json(w, h.dmb_fill_latency);
  w.key("phase_cycles");
  write_histogram_json(w, h.phase_cycles);
  w.end_object();
}

// Schema /5: the windowed time-series as parallel column arrays (one
// entry per sample), compact and trivially plottable.
void write_timeseries_json(JsonWriter& w, const TimeSeriesData& ts) {
  w.begin_object();
  w.field("interval", std::uint64_t{ts.interval});
  const auto column = [&](std::string_view name, auto&& get) {
    w.key(name);
    w.begin_array();
    for (const TimeSeriesSample& s : ts.samples) {
      w.value(std::uint64_t{get(s)});
    }
    w.end_array();
  };
  column("cycle", [](const TimeSeriesSample& s) { return s.cycle; });
  column("lsq_depth", [](const TimeSeriesSample& s) { return s.lsq_depth; });
  column("smq_backlog",
         [](const TimeSeriesSample& s) { return s.smq_backlog; });
  column("dmb_lines", [](const TimeSeriesSample& s) { return s.dmb_lines; });
  column("partial_bytes",
         [](const TimeSeriesSample& s) { return s.partial_bytes; });
  column("dmb_hits", [](const TimeSeriesSample& s) { return s.dmb_hits; });
  column("dmb_misses",
         [](const TimeSeriesSample& s) { return s.dmb_misses; });
  column("dram_bytes",
         [](const TimeSeriesSample& s) { return s.dram_bytes; });
  column("alu_busy_cycles",
         [](const TimeSeriesSample& s) { return s.alu_busy_cycles; });
  column("mac_ops", [](const TimeSeriesSample& s) { return s.mac_ops; });
  w.key("stalls");
  w.begin_object();
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    w.key(stall_cause_key(static_cast<StallCause>(i)));
    w.begin_array();
    for (const TimeSeriesSample& s : ts.samples) {
      w.value(std::uint64_t{s.stall_cycles[i]});
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

// Schema /6: one imbalance summary (obs/spatial.hpp).
void write_imbalance_json(JsonWriter& w, const ImbalanceStats& s) {
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(s.count));
  w.field("mean", s.mean);
  w.field("max", s.max_value);
  w.field("max_over_mean", s.max_over_mean);
  w.field("cov", s.cov);
  w.field("gini", s.gini);
  w.end_object();
}

// Schema /6: the spatial attribution — per-region tile-grid counter
// arrays (row-major, grid_rows x grid_cols), the residual bucket,
// the per-PE-lane counters and the imbalance summaries
// (docs/schemas.md "spatial").
void write_spatial_json(JsonWriter& w, const SpatialData& sp) {
  const auto cells = [&](std::string_view name,
                         const std::vector<std::uint64_t>& v) {
    w.key(name);
    w.begin_array();
    for (const std::uint64_t x : v) w.value(x);
    w.end_array();
  };
  w.begin_object();
  w.field("nodes", std::uint64_t{sp.nodes});
  w.field("tile", std::uint64_t{sp.tile});
  w.field("grid_rows", static_cast<std::uint64_t>(sp.grid_rows));
  w.field("grid_cols", static_cast<std::uint64_t>(sp.grid_cols));
  w.key("regions");
  w.begin_object();
  for (std::size_t i = 0; i < kSpatialRegionCount; ++i) {
    const SpatialTileCounters& r = sp.regions[i];
    if (r.empty()) continue;
    w.key(spatial_region_key(static_cast<SpatialRegion>(i)));
    w.begin_object();
    cells("nnz", r.nnz);
    cells("macs", r.macs);
    cells("dmb_hits", r.dmb_hits);
    cells("dmb_misses", r.dmb_misses);
    cells("dram_bytes", r.dram_bytes);
    cells("cycles", r.cycles);
    w.end_object();
  }
  w.end_object();
  w.key("residual");
  w.begin_object();
  w.field("cycles", sp.residual_cycles);
  w.field("dram_bytes", sp.residual_dram_bytes);
  w.field("dmb_hits", sp.residual_dmb_hits);
  w.field("dmb_misses", sp.residual_dmb_misses);
  w.end_object();
  w.key("pe");
  w.begin_object();
  cells("busy_cycles", sp.lane_busy_cycles);
  cells("mac_ops", sp.lane_mac_ops);
  w.field("array_busy_cycles", sp.array_busy_cycles);
  w.end_object();
  w.key("imbalance");
  w.begin_object();
  w.key("pe_busy");
  write_imbalance_json(w, compute_imbalance(sp.lane_busy_cycles));
  w.key("row_band_cycles");
  write_imbalance_json(w, compute_imbalance(sp.row_band_cycles()));
  w.end_object();
  w.end_object();
}

// Schema /7: one phase's sampled-mode measurement + extrapolation
// (core/sampling.hpp; docs/performance.md has the estimator).
void write_phase_sample_json(JsonWriter& w, const PhaseSampleEstimate& p) {
  w.begin_object();
  w.field("bands_total", p.bands_total);
  w.field("bands_simulated", p.bands_simulated);
  w.field("nnz_total", p.nnz_total);
  w.field("nnz_simulated", p.nnz_simulated);
  w.field("cycles_estimate", p.cycles_estimate);
  w.field("cycles_stderr", p.cycles_stderr);
  w.end_object();
}

// Schema /7: the sampled-run annotation. Only emitted (together with
// the top-level "sampled": true label) on sampled runs.
void write_sample_json(JsonWriter& w, const SampleInfo& s) {
  w.begin_object();
  w.field("fraction", s.fraction);
  w.field("seed", s.seed);
  w.field("cycles_estimate", s.cycles_estimate());
  w.field("cycles_stderr", s.cycles_stderr());
  w.field("rel_error_bound", s.rel_error_bound());
  w.key("combination");
  write_phase_sample_json(w, s.combination);
  w.key("aggregation");
  write_phase_sample_json(w, s.aggregation);
  w.end_object();
}

// Schema /7: warm-state checkpoint interaction (core/accelerator.hpp).
// Only emitted when the cell's combination phase was shared within its
// sweep.
void write_checkpoint_json(JsonWriter& w, const LayerCheckpointInfo& c) {
  w.begin_object();
  w.field("restored", c.restored);
  w.field("built", c.built);
  w.field("key", c.key);
  w.end_object();
}

void write_partition_json(JsonWriter& w, const RegionPartition& p) {
  w.begin_object();
  w.field("nodes", std::uint64_t{p.nodes});
  w.field("region1_rows", std::uint64_t{p.region1_rows});
  w.field("region2_cols", std::uint64_t{p.region2_cols});
  w.field("nnz_region1", std::uint64_t{p.nnz_region1});
  w.field("nnz_region2", std::uint64_t{p.nnz_region2});
  w.field("nnz_region3", std::uint64_t{p.nnz_region3});
  w.end_object();
}

}  // namespace

void write_results_json(std::span<const ExperimentResult> results,
                        std::ostream& out,
                        const MetricsRegistry* metrics,
                        const TraceWriter* trace) {
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", kRunReportSchema);
  w.key("results");
  w.begin_array();
  for (const ExperimentResult& r : results) {
    w.begin_object();
    w.field("dataset", r.dataset);
    w.field("abbrev", r.abbrev);
    w.field("scale", r.scale);
    w.field("flow", to_string(r.flow));
    w.field("cycles", std::uint64_t{r.stats.cycles});
    w.field("combination_cycles", std::uint64_t{r.combination_stats.cycles});
    w.field("aggregation_cycles", std::uint64_t{r.aggregation_stats.cycles});
    w.field("preprocess_ms", r.preprocess_ms);
    w.field("sim_wall_ms", r.sim_wall_ms);
    w.field("verified", r.verified);
    w.field("max_abs_err", r.max_abs_err);
    w.field("dram_peak_bytes_per_cycle", r.dram_peak_bytes_per_cycle);
    w.field("dram_bw_utilization", r.stats.dram_bandwidth_utilization(
                                        r.dram_peak_bytes_per_cycle));
    w.field("sampled", r.sample.enabled);
    if (r.sample.enabled) {
      w.key("sample");
      write_sample_json(w, r.sample);
    }
    if (r.checkpoint.enabled) {
      w.key("checkpoint");
      write_checkpoint_json(w, r.checkpoint);
    }
    if (r.flow == Dataflow::kHybrid) {
      w.key("partition");
      write_partition_json(w, r.partition);
    }
    if (r.tune.enabled) {
      w.key("tune");
      write_tune_json(w, r.tune);
    }
    w.key("stats");
    write_stats_json(w, r.stats);
    w.key("combination");
    write_stats_json(w, r.combination_stats);
    w.key("aggregation");
    write_stats_json(w, r.aggregation_stats);
    if (r.flow == Dataflow::kHybrid) {
      w.key("regions");
      w.begin_array();
      for (const SimStats& region : r.hybrid_info.region_stats) {
        write_stats_json(w, region);
      }
      w.end_array();
    }
    if (!r.histograms.empty()) {
      w.key("histograms");
      write_histograms_json(w, r.histograms);
    }
    if (!r.timeseries.empty()) {
      w.key("timeseries");
      write_timeseries_json(w, r.timeseries);
    }
    if (!r.spatial.empty()) {
      w.key("spatial");
      write_spatial_json(w, r.spatial);
    }
    w.end_object();
  }
  w.end_array();
  if (metrics != nullptr && !metrics->empty()) {
    w.key("metrics");
    metrics->write_json(w);
  }
  if (trace != nullptr) {
    std::uint64_t skipped = 0;
    for (const ExperimentResult& r : results) {
      skipped += r.stats.skipped_cycles;
    }
    w.key("trace");
    w.begin_object();
    w.field("events", static_cast<std::uint64_t>(trace->event_count()));
    w.field("dropped_instants",
            static_cast<std::uint64_t>(trace->dropped_instants()));
    // Cycle-domain span the trace never saw per-cycle ticks for
    // (fast-forwarded; since schema /3).
    w.field("skipped_cycles", skipped);
    w.end_object();
  }
  w.end_object();
  out << '\n';
}

}  // namespace hymm
