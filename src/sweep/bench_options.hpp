/// @file
/// Unified bench configuration: the knobs every bench binary and
/// hymm_sim share, parsed once from the environment and --key=value
/// args instead of each binary re-reading getenv.
///
///   env                 flag               meaning
///   HYMM_DATASETS       --datasets=CR,AP   subset of Table II workloads
///   HYMM_FULL_DATASETS  --full-datasets    simulate FR/YP at full size
///   HYMM_SCALE          --scale=0.1        scale override (0 < s <= 1)
///   HYMM_TRACE_DIR      --trace-dir=DIR    Perfetto trace per dataset
///   HYMM_JSON_DIR       --json-dir=DIR     JSON run report per dataset
///   HYMM_TIMESERIES     --timeseries[=N]   windowed telemetry every N
///                                          cycles (bare flag / "1" =
///                                          256; "0" = off)
///   HYMM_SPATIAL        --spatial[=TILE]   per-PE / per-tile spatial
///                                          attribution (bare flag /
///                                          "1" = auto tile size;
///                                          N >= 2 = a TILE-node tile
///                                          edge; "0" = off)
///   HYMM_THREADS        --threads=N        sweep workers (0 = auto)
///                       --seed=N           workload seed (default 42)
///   HYMM_AUTOTUNE       --autotune[=MODE]  measured threshold search:
///                                          off|measured (bare
///                                          --autotune = measured)
///   HYMM_SAMPLE         --sample[=F]       sampled simulation: simulate
///                                          a seeded fraction F of tile
///                                          bands per phase and
///                                          extrapolate (0 < F <= 1;
///                                          bare --sample = 0.25;
///                                          "0" = off)
///
/// Flags accept "--flag value" and "--flag=value" and win over the
/// environment. Unknown dataset tokens and malformed numbers fail
/// fast with a UsageError naming the bad value — no silent fallback.
/// A sampled run records no observer output, so a trace dir, a time
/// series or spatial attribution together with a sampling fraction
/// is a UsageError naming both knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flags.hpp"
#include "graph/datasets.hpp"
#include "sweep/sweep.hpp"

namespace hymm {

/// The bench/driver knobs shared by every binary, parsed once from
/// HYMM_* environment variables and --key=value arguments. Flags win
/// over the environment; every value is validated up front (a bad one
/// throws UsageError naming it — no silent fallback).
struct BenchOptions {
  std::vector<DatasetSpec> datasets;  ///< resolved selection; never empty
  /// Whether the user narrowed the selection (HYMM_DATASETS or
  /// --datasets); binaries that default to a dataset subset honour an
  /// explicit selection instead.
  bool datasets_explicit = false;
  std::optional<double> scale;        ///< nullopt = per-dataset default
  bool full_datasets = false;         ///< simulate FR/YP at full size
  std::string trace_dir;              ///< Perfetto trace dir; empty = off
  std::string json_dir;               ///< JSON report dir; empty = off
  /// Windowed time-series sampling interval in cycles; 0 = off. Bare
  /// --timeseries (or HYMM_TIMESERIES=1) selects the default 256.
  std::uint64_t timeseries_interval = 0;
  /// Spatial attribution (obs/spatial.hpp): 0 = off, 1 = on with an
  /// automatically sized tile grid, N >= 2 = on with an N-node tile
  /// edge. Bare --spatial (or HYMM_SPATIAL=1) selects auto sizing.
  std::uint64_t spatial_tile = 0;
  unsigned threads = 0;               ///< 0 = HYMM_THREADS/auto
  std::uint64_t seed = 42;
  /// Measured threshold search (src/tune/): how hybrid cells pick
  /// their tiling threshold. kOff keeps the config's fixed value.
  AutotuneMode autotune = AutotuneMode::kOff;

  /// Sampled-simulation fraction (core/sampling.hpp): 0 = exact mode,
  /// otherwise the fraction of tile bands simulated per phase
  /// (0 < sample <= 1). Bare --sample selects the default 0.25.
  /// Out-of-range values throw UsageError — no clamping.
  double sample = 0.0;

  /// Effective scale for one dataset: the override, else 1.0 under
  /// --full-datasets, else the dataset's bench default.
  double scale_for(const DatasetSpec& spec) const;
  /// True when any observer-backed output was requested (trace or
  /// report dirs, the windowed time-series, or spatial attribution).
  bool observing() const {
    return !trace_dir.empty() || !json_dir.empty() ||
           timeseries_interval > 0 || spatial_tile > 0;
  }

  /// The sweep settings these options ask for: workers, sampling and
  /// the observers the trace/json dirs and time-series/spatial knobs
  /// need. Callers add their own group_key.
  SweepOptions sweep_options() const;

  /// getenv-shaped hook so tests can inject an environment.
  using EnvGetter = std::function<const char*(const char*)>;

  /// Testable core. Parses `args` (argv[1..]) and the HYMM_* variables
  /// via `env`; throws UsageError on any bad value. When `unrecognized`
  /// is non-null, flags this parser doesn't own (plus their would-be
  /// values) are passed through in order for the caller to handle;
  /// when null an unknown flag is an error.
  static BenchOptions parse(const std::vector<std::string>& args,
                            const EnvGetter& env,
                            std::vector<std::string>* unrecognized = nullptr);

  /// main() entry point: ::getenv + argv; prints the UsageError to
  /// stderr and exits 2 on a bad flag or environment value.
  static BenchOptions from_env_and_args(
      int argc, char** argv, std::vector<std::string>* unrecognized = nullptr);
};

}  // namespace hymm
