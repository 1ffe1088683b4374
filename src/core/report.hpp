/// @file
/// Human-readable, CSV and JSON renderings of simulation statistics,
/// shared by the bench binaries, the examples and external tooling.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace hymm {

class TraceWriter;

/// Multi-line summary of one run's counters (cycles, utilization, hit
/// rates, traffic by class, partial footprint), the stall breakdown
/// and the bottleneck verdict. A non-zero `peak_bytes_per_cycle`
/// (the configured DRAM peak) adds the bandwidth-roofline line.
void print_stats_summary(const SimStats& stats, std::ostream& out,
                         const std::string& indent = "  ",
                         std::uint64_t peak_bytes_per_cycle = 0);

/// One-line "class=bytes" breakdown of DRAM traffic.
std::string dram_breakdown_string(const SimStats& stats);

/// RFC 4180 field quoting: wraps `field` in double quotes (doubling
/// embedded quotes) when it contains a comma, quote, CR or LF;
/// otherwise returns it unchanged.
std::string csv_quote(const std::string& field);

/// Machine-readable experiment dump: one row per result with a fixed
/// header (dataset, flow, cycles, utilization, hit rate, per-class
/// bytes, partial peak, verification, per-cause stall cycles,
/// bottleneck verdict, DRAM bandwidth utilization, the LSQ/DRAM
/// latency quantiles — zero without an observer — and the PE/row-band
/// load-imbalance summary — zero without --spatial). String fields
/// are csv_quote()d.
void write_results_csv(std::span<const ExperimentResult> results,
                       std::ostream& out);

/// JSON run report (schema "hymm-run-report/9"; spec in
/// docs/schemas.md): one object per result carrying the full SimStats
/// counter set (whole layer plus the combination/aggregation phase
/// deltas and, for hybrid runs, the per-region breakdown), each with
/// its stall-cycle breakdown and bottleneck verdict, plus the
/// partition, the verification verdict, — when an observer was
/// attached — the latency-histogram summary under
/// "histograms" and the windowed telemetry under "timeseries", and
/// — with --spatial — the tile heatmap and per-PE counters under
/// "spatial".
/// When `metrics` is non-null its counters/gauges/histograms
/// are appended under "metrics"; when `trace` is non-null its event
/// and dropped-instant counts are appended under "trace". Output is
/// valid JSON (obs/json.hpp's json_is_valid accepts it).
void write_results_json(std::span<const ExperimentResult> results,
                        std::ostream& out,
                        const MetricsRegistry* metrics = nullptr,
                        const TraceWriter* trace = nullptr);

}  // namespace hymm
