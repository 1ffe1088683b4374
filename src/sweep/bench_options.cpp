#include "sweep/bench_options.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace hymm {

namespace {

// Splits a comma-separated dataset list; every non-empty token must
// name a registry dataset (abbreviation or full name).
std::vector<DatasetSpec> parse_dataset_list(const std::string& source,
                                            const std::string& value) {
  std::vector<DatasetSpec> selected;
  std::stringstream ss(value);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const std::optional<DatasetSpec> spec = find_dataset(token);
    if (!spec) {
      std::ostringstream oss;
      oss << "unknown dataset '" << token << "' in " << source
          << " (expected";
      for (const DatasetSpec& d : paper_datasets()) oss << ' ' << d.abbrev;
      oss << ")";
      throw UsageError(oss.str());
    }
    selected.push_back(*spec);
  }
  return selected;
}

double parse_scale(const std::string& source, const std::string& value) {
  const double scale = parse_double_value(source, value, 0.0, 1.0);
  if (scale == 0.0) {
    throw UsageError("invalid value '" + value + "' for " + source +
                     " (must be > 0)");
  }
  return scale;
}

bool env_truthy(const char* value) {
  return value != nullptr && value[0] == '1';
}

// "0" = off, "1" = on at the default 256-cycle interval, N >= 2 = a
// custom interval of N cycles.
std::uint64_t parse_timeseries(const std::string& source,
                               const std::string& value) {
  const std::uint64_t n = parse_u64_value(source, value, 0);
  return n == 1 ? 256 : n;
}

// "0" = off, "1" = on with auto tile sizing, N >= 2 = on with an
// N-node tile edge (obs/spatial.hpp clamps the resulting grid).
std::uint64_t parse_spatial(const std::string& source,
                            const std::string& value) {
  return parse_u64_value(source, value, 0);
}

}  // namespace

double BenchOptions::scale_for(const DatasetSpec& spec) const {
  if (scale) return *scale;
  if (full_datasets) return 1.0;
  return default_scale(spec);
}

BenchOptions BenchOptions::parse(const std::vector<std::string>& args,
                                 const EnvGetter& env,
                                 std::vector<std::string>* unrecognized) {
  BenchOptions options;

  // --- Environment first (flags override below) ---
  if (const char* v = env("HYMM_DATASETS")) {
    options.datasets = parse_dataset_list("HYMM_DATASETS", v);
  }
  if (const char* v = env("HYMM_SCALE")) {
    options.scale = parse_scale("HYMM_SCALE", v);
  }
  options.full_datasets = env_truthy(env("HYMM_FULL_DATASETS"));
  if (const char* v = env("HYMM_TRACE_DIR")) options.trace_dir = v;
  if (const char* v = env("HYMM_JSON_DIR")) options.json_dir = v;
  if (const char* v = env("HYMM_TIMESERIES")) {
    options.timeseries_interval = parse_timeseries("HYMM_TIMESERIES", v);
  }
  if (const char* v = env("HYMM_SPATIAL")) {
    options.spatial_tile = parse_spatial("HYMM_SPATIAL", v);
  }
  if (const char* v = env("HYMM_THREADS")) {
    options.threads = static_cast<unsigned>(
        parse_u64_value("HYMM_THREADS", v, 0, 4096));
  }

  // --- --key=value / --key value flags ---
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('=');
        eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (inline_value && !inline_value->empty()) return *inline_value;
      if (inline_value || i + 1 >= args.size()) {
        throw UsageError("missing value for " + arg);
      }
      return args[++i];
    };
    if (arg == "--datasets") {
      options.datasets = parse_dataset_list("--datasets", next());
    } else if (arg == "--scale") {
      options.scale = parse_scale("--scale", next());
    } else if (arg == "--full-datasets") {
      options.full_datasets = true;
    } else if (arg == "--trace-dir") {
      options.trace_dir = next();
    } else if (arg == "--json-dir") {
      options.json_dir = next();
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(
          parse_u64_value("--threads", next(), 0, 4096));
    } else if (arg == "--seed") {
      options.seed = parse_u64_value("--seed", next(), 0);
    } else if (arg == "--timeseries") {
      // Value optional: bare --timeseries means the default interval
      // (never consumes the following argument).
      options.timeseries_interval = parse_timeseries(
          "--timeseries", inline_value ? *inline_value : "1");
    } else if (arg == "--spatial") {
      // Value optional: bare --spatial means auto tile sizing (never
      // consumes the following argument).
      options.spatial_tile =
          parse_spatial("--spatial", inline_value ? *inline_value : "1");
    } else if (unrecognized != nullptr) {
      // Pass the flag through untouched (original spelling), plus any
      // following non-flag tokens that may be its values.
      unrecognized->push_back(args[i]);
      while (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        unrecognized->push_back(args[++i]);
      }
    } else {
      throw UsageError("unknown argument " + args[i]);
    }
  }

  options.datasets_explicit = !options.datasets.empty();
  if (options.datasets.empty()) options.datasets = paper_datasets();
  return options;
}

SweepOptions BenchOptions::sweep_options() const {
  SweepOptions sweep_options;
  sweep_options.threads = threads;
  sweep_options.observe = observing();
  sweep_options.observer_options.trace = !trace_dir.empty();
  sweep_options.observer_options.timeseries = timeseries_interval > 0;
  if (timeseries_interval > 0) {
    sweep_options.observer_options.timeseries_interval = timeseries_interval;
  }
  sweep_options.observer_options.spatial = spatial_tile > 0;
  sweep_options.observer_options.spatial_tile =
      spatial_tile >= 2 ? static_cast<NodeId>(spatial_tile) : 0;
  return sweep_options;
}

BenchOptions BenchOptions::from_env_and_args(
    int argc, char** argv, std::vector<std::string>* unrecognized) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    return parse(
        args, [](const char* name) { return std::getenv(name); },
        unrecognized);
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace hymm
