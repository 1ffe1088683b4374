// End-to-end GCN serving bench: an open-loop Poisson client issues
// full-graph and sampled-subgraph inference requests against one
// shared model (src/serve/), and the scheduler batches compatible
// requests and keeps each layer's XW output resident between phases.
// Prints throughput / utilization / p50-p90-p99 latency and can write
// the per-request CSV and the hymm-serve-report/1 JSON snapshot that
// scripts/check_schema.py validates and scripts/perf_compare diffs.
//
//   serve_bench [--out FILE] [--csv FILE] [--flow op|rwp|hybrid]
//               [bench flags]
//
// Serving knobs ride the shared bench-option set: --arrival-rate,
// --requests, --batch, --queue-cap, --reuse (HYMM_ARRIVAL_RATE, ...),
// plus the usual --datasets/--scale/--seed/--threads. One dataset per
// run; with no explicit selection Cora (CR) is served. The whole run
// is deterministic in --seed: per-request cycles are bit-identical at
// any --threads value and under HYMM_NO_FASTFWD.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "core/gcn_model.hpp"
#include "linalg/gcn.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "sweep/bench_options.hpp"

int main(int argc, char** argv) {
  using namespace hymm;

  std::vector<std::string> rest;
  const BenchOptions opts = BenchOptions::from_env_and_args(argc, argv, &rest);

  std::string out_path;
  std::string csv_path;
  Dataflow flow = Dataflow::kHybrid;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--out" && i + 1 < rest.size()) {
      out_path = rest[++i];
    } else if (rest[i] == "--csv" && i + 1 < rest.size()) {
      csv_path = rest[++i];
    } else if (rest[i] == "--flow" && i + 1 < rest.size()) {
      const std::string& value = rest[++i];
      if (value == "op") {
        flow = Dataflow::kOuterProduct;
      } else if (value == "rwp") {
        flow = Dataflow::kRowWiseProduct;
      } else if (value == "hybrid") {
        flow = Dataflow::kHybrid;
      } else {
        std::cerr << "--flow expects op|rwp|hybrid, got \"" << value
                  << "\"\n";
        return 2;
      }
    } else if (rest[i] == "--version") {
      std::cout << "serve_bench\n"
                << "  serve-report schema: " << kServeReportSchema << '\n';
      return 0;
    } else {
      std::cerr << "usage: serve_bench [--out FILE] [--csv FILE] "
                   "[--flow op|rwp|hybrid] [bench flags]\n";
      return 2;
    }
  }

  // One dataset per serving run; default to Cora, the smallest.
  const DatasetSpec spec =
      opts.datasets_explicit ? opts.datasets.front() : *find_dataset("CR");
  if (opts.datasets_explicit && opts.datasets.size() > 1) {
    std::cerr << "[serve] serving first selected dataset only ("
              << spec.abbrev << "); run once per dataset to sweep\n";
  }
  const double scale = opts.scale_for(spec);
  const GcnWorkload workload = build_workload(spec, scale, opts.seed);
  const std::vector<RequestClass> classes =
      build_request_classes(workload, opts.seed);

  // Shared two-layer weight chain (feature_length -> d -> d); every
  // class runs it, which is what lets a batch amortize weight fetches.
  const GcnModel model = GcnModel::with_random_weights(
      classes.front().a_hat, workload.spec.feature_length,
      {workload.spec.layer_dim, workload.spec.layer_dim}, opts.seed);

  ServeConfig config;
  config.flow = flow;
  config.requests = opts.requests > 0 ? opts.requests : 256;
  config.arrival_rate = opts.arrival_rate > 0.0 ? opts.arrival_rate : 2000.0;
  config.max_batch = opts.batch > 0 ? opts.batch : 4;
  config.queue_capacity =
      opts.queue_capacity > 0 ? opts.queue_capacity : 64;
  config.buffer_reuse = opts.serve_reuse.value_or(true);
  config.seed = opts.seed;
  config.threads = opts.threads;

  const ServeResult result = run_serve(classes, model.weights(), config);
  const ServeReportMeta meta{workload.spec, workload.scale, opts.seed};
  print_serve_summary(result, config, meta, std::cout);

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    write_serve_csv(result, csv);
    csv.close();
    if (!csv) {
      std::cerr << "[serve] failed to write " << csv_path << "\n";
      return 1;
    }
    std::cerr << "[serve] wrote " << csv_path << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream json(out_path);
    write_serve_json(result, config, meta, json);
    json.close();
    if (!json) {
      std::cerr << "[serve] failed to write " << out_path << "\n";
      return 1;
    }
    std::cerr << "[serve] wrote " << out_path << "\n";
  }

  for (const ClassCost& cost : result.class_costs) {
    if (!cost.verified) {
      std::cerr << "[serve] class \"" << cost.name
                << "\" FAILED verification (max |err| " << cost.max_abs_err
                << ")\n";
      return 1;
    }
  }
  return 0;
}
