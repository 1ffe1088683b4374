// Command-line simulator driver: run any Table II workload (or your
// own edge list) under any dataflow and configuration, and dump the
// full statistics report.
//
//   hymm_sim --dataset AP --flow hymm --scale 0.5
//   hymm_sim --edge-list graph.txt --features feats.txt --flow rwp
//   hymm_sim --dataset AC --dmb-kb 512 --tiling 0.1 --csv out.csv
//   hymm_sim --dataset CR --trace=out.json --json=report.json
//
// Flags accept both "--flag value" and "--flag=value". The shared
// bench knobs (--scale, --seed, --threads and their HYMM_* envs) are
// parsed by BenchOptions; the flows run as sweep cells, in parallel
// when more than one worker is available and no trace/JSON observer
// forces them onto one serial group.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/version.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "graph/generator.hpp"
#include "graph/io.hpp"
#include "obs/observer.hpp"
#include "sweep/bench_options.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace hymm;

void usage() {
  std::cout <<
      "hymm_sim — HyMM cycle-level simulator driver\n"
      "\n"
      "Workload (pick one):\n"
      "  --dataset <CR|AP|AC|CS|PH|FR|YP>   Table II synthetic workload\n"
      "  --edge-list <file>                 0-based 'src dst [w]' lines\n"
      "Options:\n"
      "  --features <file>    %%HyMMSparse feature matrix (edge-list mode)\n"
      "  --flow <op|rwp|hymm|all>           dataflow (default: all)\n"
      "  --scale <0..1>       dataset scale (default: bench default)\n"
      "  --seed <n>           workload seed (default 42)\n"
      "  --threads <n>        sweep workers (default: HYMM_THREADS/auto)\n"
      "  --dmb-kb <n>         DMB capacity in KB (default 256)\n"
      "  --tiling <0..1>      tiling threshold (default 0.2)\n"
      "  --fifo               FIFO eviction instead of LRU\n"
      "  --no-accumulator     disable the near-memory accumulator\n"
      "  --csv <file>         append machine-readable results\n"
      "Observability (see DESIGN.md \"Observability\"):\n"
      "  --trace <file>       Chrome/Perfetto trace of the run(s)\n"
      "  --json <file>        JSON run report (full counter set)\n"
      "                       (--trace-dir, --json-dir, HYMM_TRACE_DIR and\n"
      "                       HYMM_JSON_DIR are bench knobs: exit 2 here)\n"
      "  --sample-interval <cycles>  counter-track sampling period\n"
      "  --timeseries[=N]     windowed telemetry every N cycles\n"
      "                       (bare = 256; also HYMM_TIMESERIES)\n"
      "  --spatial[=TILE]     per-PE / per-tile spatial attribution\n"
      "                       (bare = auto tile size; also HYMM_SPATIAL)\n"
      "  --version            print the run-report schema version\n";
}

void print_version() {
  std::cout << "hymm_sim\n"
            << "  run-report schema: " << kRunReportSchema << '\n';
}

std::optional<Dataflow> parse_flow(const std::string& s) {
  if (s == "op") return Dataflow::kOuterProduct;
  if (s == "rwp") return Dataflow::kRowWiseProduct;
  if (s == "hymm") return Dataflow::kHybrid;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hymm;

  // Shared knobs (--scale/--seed/--threads + HYMM_* envs) first; the
  // driver-specific flags pass through in `rest`.
  std::vector<std::string> rest;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv, &rest);
  // The bench per-dataset output directories mean nothing here: the
  // driver writes only the files --trace and --json name. The message
  // names the flag if the command line has it (flags win), else the
  // environment variable.
  for (const auto& [dir, flag, env] :
       {std::tuple{opts.trace_dir, "--trace-dir", "HYMM_TRACE_DIR"},
        std::tuple{opts.json_dir, "--json-dir", "HYMM_JSON_DIR"}}) {
    if (dir.empty()) continue;
    const bool flagged = std::any_of(argv + 1, argv + argc, [&](auto a) {
      return std::string_view(a).starts_with(flag);
    });
    std::cerr << (flagged ? flag : env) << " is not supported by hymm_sim: "
              << "use --trace <file> and --json <file>\n";
    return 2;
  }

  std::string dataset, edge_list, features_path, flow_arg = "all", csv_path;
  std::string trace_path, json_path;
  AcceleratorConfig config;
  try {
    for (std::size_t i = 0; i < rest.size(); ++i) {
      std::string arg = rest[i];
      // "--flag=value" is equivalent to "--flag value".
      std::optional<std::string> inline_value;
      if (const auto eq = arg.find('=');
          eq != std::string::npos && arg.rfind("--", 0) == 0) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
      }
      auto next = [&]() -> std::string {
        if (inline_value && !inline_value->empty()) return *inline_value;
        if (inline_value || i + 1 >= rest.size()) {
          throw UsageError("missing value for " + arg);
        }
        return rest[++i];
      };
      if (arg == "--dataset") dataset = next();
      else if (arg == "--edge-list") edge_list = next();
      else if (arg == "--features") features_path = next();
      else if (arg == "--flow") flow_arg = next();
      else if (arg == "--dmb-kb") config.dmb_bytes = parse_u64_value("--dmb-kb", next(), 1) * 1024;
      else if (arg == "--tiling") config.tiling_threshold = parse_double_value("--tiling", next(), 0.0, 1.0);
      else if (arg == "--fifo") config.eviction_policy = EvictionPolicy::kFifo;
      else if (arg == "--no-accumulator") config.near_memory_accumulator = false;
      else if (arg == "--csv") csv_path = next();
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--json") json_path = next();
      else if (arg == "--sample-interval") config.obs_sample_interval = parse_u64_value("--sample-interval", next(), 1);
      else if (arg == "--version") { print_version(); return 0; }
      else if (arg == "--help" || arg == "-h") { usage(); return 0; }
      else {
        std::cerr << "unknown argument " << arg << "\n";
        usage();
        return 2;
      }
    }
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<Dataflow> flows;
  if (flow_arg == "all") {
    flows = {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
             Dataflow::kHybrid};
  } else if (const auto f = parse_flow(flow_arg)) {
    flows = {*f};
  } else {
    std::cerr << "unknown dataflow '" << flow_arg << "'\n";
    return 2;
  }

  // --- Build the workload (adjacency, features, weights, golden) ---
  // Malformed input files raise CheckError naming the offending line;
  // an input whose sizes do not fit in memory raises std::bad_alloc,
  // reported against the input being built.
  std::shared_ptr<const PreparedWorkload> prepared;
  std::string input = dataset.empty() ? edge_list : dataset;
  try {
    if (!dataset.empty()) {
      const auto spec = find_dataset(dataset);
      if (!spec) {
        std::cerr << "unknown dataset '" << dataset << "'\n";
        return 2;
      }
      const double effective =
          opts.scale ? *opts.scale
                     : (opts.full_datasets ? 1.0 : default_scale(*spec));
      prepared =
          std::make_shared<PreparedWorkload>(*spec, effective, opts.seed);
    } else if (!edge_list.empty()) {
      GcnWorkload workload;
      EdgeListOptions options;
      options.symmetrize = true;
      options.drop_self_loops = true;
      workload.adjacency = load_edge_list_file(edge_list, options);
      workload.spec.name = edge_list;
      workload.spec.abbrev = "custom";
      workload.spec.nodes = workload.adjacency.rows();
      workload.spec.edges = workload.adjacency.nnz();
      workload.spec.layer_dim = 16;
      if (!features_path.empty()) {
        input = features_path;
        workload.features = load_sparse_matrix_file(features_path);
        input = edge_list;
        if (workload.features.rows() != workload.adjacency.rows()) {
          std::cerr << "feature rows != graph nodes\n";
          return 2;
        }
      } else {
        FeatureSpec fspec;
        fspec.nodes = workload.spec.nodes;
        fspec.feature_length = 128;
        fspec.density = 0.2;
        fspec.seed = opts.seed + 1;
        workload.features = generate_features(fspec);
      }
      workload.spec.feature_length = workload.features.cols();
      prepared = std::make_shared<PreparedWorkload>(std::move(workload),
                                                    opts.seed);
    } else {
      usage();
      return 2;
    }
  } catch (const CheckError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  } catch (const std::bad_alloc&) {
    std::cerr << input << ": does not fit in memory\n";
    return 1;
  }

  std::cout << "Workload: " << prepared->workload().spec.name << " — "
            << prepared->workload().spec.nodes << " nodes, "
            << prepared->workload().adjacency.nnz() << " edges, "
            << prepared->workload().features.cols() << " features\n\n";

  // --- Run the flows as one sweep ---
  SweepSpec sweep_spec;
  sweep_spec.workloads = {prepared};
  sweep_spec.configs = {config};
  sweep_spec.flows = flows;
  sweep_spec.seed = opts.seed;

  // The driver writes its own --trace/--json files, not the bench
  // per-dataset dirs.
  const bool observing = !trace_path.empty() || !json_path.empty() ||
                         opts.timeseries_interval > 0 ||
                         opts.spatial_tile > 0;
  SweepOptions sweep_options = opts.sweep_options();
  sweep_options.observe = observing;
  sweep_options.observer_options.trace = !trace_path.empty();
  sweep_options.observer_options.sample_interval = config.obs_sample_interval;
  if (observing) {
    // One observer for every flow: each run becomes its own trace
    // process group and the metrics registry aggregates across runs.
    sweep_options.group_key = [](const SweepCell&) {
      return std::string("all");
    };
  }
  SweepRunner runner(sweep_options);
  const SweepRun run = runner.run(sweep_spec);

  std::vector<ExperimentResult> results;
  for (const SweepCellResult& cell : run.cells) {
    const ExperimentResult& r = cell.result;
    std::cout << to_string(r.flow) << " ("
              << (r.verified ? "verified" : "MISMATCH") << ", max err "
              << r.max_abs_err << ")\n";
    print_stats_summary(r.stats, std::cout, "  ",
                        r.dram_peak_bytes_per_cycle);
    if (!r.histograms.empty()) {
      const auto quantiles = [](const LogHistogram& h) {
        std::ostringstream oss;
        oss << "p50=" << h.quantile(0.5) << " p90=" << h.quantile(0.9)
            << " p99=" << h.quantile(0.99) << " max=" << h.max() << " ("
            << h.count() << " samples)";
        return oss.str();
      };
      std::cout << "  load latency:    "
                << quantiles(r.histograms.lsq_load_latency) << '\n'
                << "  DRAM latency:    "
                << quantiles(r.histograms.dram_read_latency) << '\n';
    }
    if (!r.timeseries.empty()) {
      std::cout << "  timeseries:      " << r.timeseries.samples.size()
                << " samples @ " << r.timeseries.interval << " cycles\n";
    }
    if (!r.spatial.empty()) {
      const ImbalanceStats pe = compute_imbalance(r.spatial.lane_busy_cycles);
      const ImbalanceStats band =
          compute_imbalance(r.spatial.row_band_cycles());
      std::cout << "  spatial:         " << r.spatial.grid_rows << "x"
                << r.spatial.grid_cols << " grid (tile " << r.spatial.tile
                << " nodes)\n"
                << "  PE imbalance:    max/mean=" << pe.max_over_mean
                << " cov=" << pe.cov << " gini=" << pe.gini << '\n'
                << "  row-band imbal.: max/mean=" << band.max_over_mean
                << " cov=" << band.cov << " gini=" << band.gini << '\n';
    }
    std::cout << '\n';
    results.push_back(r);
  }

  const std::shared_ptr<Observer> observer =
      observing ? run.groups.front().observer : nullptr;
  bool write_failed = false;
  const auto report_written = [&write_failed](const std::ofstream& out,
                                              const std::string& path,
                                              const char* hint = "") {
    if (out) {
      std::cout << "wrote " << path << hint << "\n";
    } else {
      std::cerr << "failed to write " << path << "\n";
      write_failed = true;
    }
  };
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    write_results_csv(results, csv);
    report_written(csv, csv_path);
  }
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    observer->trace().write(trace);
    report_written(trace, trace_path,
                   " (open in ui.perfetto.dev or chrome://tracing)");
    std::cerr << "trace: " << observer->trace().event_count() << " events";
    if (observer->trace().dropped_instants() > 0) {
      std::cerr << " (" << observer->trace().dropped_instants()
                << " instants dropped past the event cap)";
    }
    std::cerr << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    write_results_json(results, json, observer ? &observer->metrics() : nullptr,
                       observer ? &observer->trace() : nullptr);
    report_written(json, json_path);
  }
  return write_failed ? 1 : 0;
}
