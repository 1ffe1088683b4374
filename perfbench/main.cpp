// HyMM benchmark harness: runs one workload for a fixed host-time
// budget and prints its end-to-end metrics (or, with --trace 1, its
// per-layer metrics) as one JSON line. perfbench/run.py builds this
// binary, runs each workload in its own process and formats the
// result; see perfbench/README.md for the metric definitions.
//
//   perfbench --workload infer-cs|observed-ap|sweep-ac [--seed N]
//             [--seconds S] [--trace 0|1] [--spans FILE]
//
// Only default-path public entry points are driven: no routing,
// autotune, sampling or checkpoints, and GcnModel::run is called with
// an InferenceRequest.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/gcn_model.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "linalg/gcn.hpp"
#include "calibration.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {
namespace {

using namespace hymm;

constexpr std::array<Dataflow, 3> kFlows = {
    Dataflow::kHybrid, Dataflow::kRowWiseProduct, Dataflow::kOuterProduct};
constexpr std::array<const char*, 3> kFlowKeys = {"hymm", "rwp", "op"};
constexpr std::array<const char*, kTrafficClassCount> kTrafficKeys = {
    "adjacency", "features", "weights", "xw", "axw", "partial"};
// Set-up runs at least kMinSetups times, and more (up to kMaxSetups)
// while their total stays under kSetupSeconds; setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupSeconds = 3.0;
// Fewest timed iterations a run makes, however long they take.
constexpr int kMinIterations = 2;

std::size_t flow_slot(Dataflow flow) {
  return static_cast<std::size_t>(
      std::find(kFlows.begin(), kFlows.end(), flow) - kFlows.begin());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t dram_bytes(const SimStats& s, std::size_t cls) {
  return s.dram_read_bytes[cls] + s.dram_write_bytes[cls];
}

/// The counters that define a simulation's timing: cycles, stall
/// buckets and DRAM bytes per class, read and write.
std::vector<std::uint64_t> timing_key(const SimStats& s) {
  std::vector<std::uint64_t> key = {s.cycles};
  key.insert(key.end(), s.stall_cycles.begin(), s.stall_cycles.end());
  key.insert(key.end(), s.dram_read_bytes.begin(), s.dram_read_bytes.end());
  key.insert(key.end(), s.dram_write_bytes.begin(), s.dram_write_bytes.end());
  return key;
}

/// A stream that discards what is written and counts the bytes, so
/// serialization is timed without a file system in the way.
class CountingBuf : public std::streambuf {
 public:
  CountingBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_.data(), buf_.data() + buf_.size());
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  std::array<char, 1 << 16> buf_{};
  std::uint64_t flushed_ = 0;
};

/// What one iteration of a workload simulated, summed per flow.
struct Tally {
  struct Flow {
    SimStats total, comb, agg;
    std::array<SimStats, 2> layer, layer_comb, layer_agg;  // GCN layers 1, 2
    double host_s = 0.0;
  };
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::array<Flow, 3> flows;
  std::array<SimStats, 3> regions;  // hybrid regions 1-3
  /// Layer metrics the workload measured itself (obs.*, sweep.*, ...).
  std::map<std::string, double> extra;

  void add(Dataflow flow, std::size_t gcn_layer, const SimStats& total,
           const SimStats& comb, const SimStats& agg,
           const HybridAggregationInfo& hybrid) {
    Flow& f = flows[flow_slot(flow)];
    f.total.merge_phase(total);
    f.comb.merge_phase(comb);
    f.agg.merge_phase(agg);
    if (gcn_layer < f.layer.size()) {
      f.layer[gcn_layer].merge_phase(total);
      f.layer_comb[gcn_layer].merge_phase(comb);
      f.layer_agg[gcn_layer].merge_phase(agg);
    }
    if (flow == Dataflow::kHybrid) {
      for (std::size_t r = 0; r < regions.size(); ++r) {
        regions[r].merge_phase(hybrid.region_stats[r]);
      }
    }
  }

  void add(const ExperimentResult& r) {
    ++attempted;
    if (!r.verified) ++failed;
    add(r.flow, 0, r.stats, r.combination_stats, r.aggregation_stats,
        r.hybrid_info);
    flows[flow_slot(r.flow)].host_s += r.sim_wall_ms / 1e3;
  }

  /// Every modeled counter the end-to-end metrics derive from; equal
  /// across iterations (and traced vs untraced) at a fixed seed.
  std::vector<std::uint64_t> signature() const {
    std::vector<std::uint64_t> sig;
    for (const Flow& f : flows) {
      for (const SimStats* s : {&f.total, &f.comb, &f.agg}) {
        const std::vector<std::uint64_t> k = timing_key(*s);
        sig.insert(sig.end(), k.begin(), k.end());
      }
    }
    return sig;
  }
};

/// One benchmark workload: inputs built in setup(), then iterate()
/// repeated for the run's time budget.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs. With an enabled recorder, also records the
  /// graph/linalg spans the set-up is made of.
  virtual void setup(SpanRecorder& rec) = 0;
  /// One timed unit of work: every simulation and its verification.
  virtual Tally iterate(SpanRecorder& rec) = 0;
  /// Traced-run-only measurements made after the traced iteration.
  virtual void traced_extras(SpanRecorder&, Tally&) {}
  /// Failed self-checks, one message each.
  std::vector<std::string> problems;

 protected:
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

DatasetSpec dataset(const char* abbrev) { return *find_dataset(abbrev); }

// --- infer-cs ------------------------------------------------------------

/// Two-layer GCN inference (features -> 16 -> 16) on the CS stand-in,
/// HyMM then RWP then OP on one thread, each a verified
/// GcnModel::run(InferenceRequest) with no observer and no
/// precomputed sort.
class InferCs : public Workload {
 public:
  explicit InferCs(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& rec) override {
    GcnWorkload workload;
    rec.time("graph.build", [&] {
      workload = build_workload(dataset("CS"), 1.0, seed_);
    });
    CsrMatrix a_hat;
    rec.time("linalg.normalize",
             [&] { a_hat = normalize_adjacency(workload.adjacency); });
    adj_nnz_ = static_cast<double>(workload.adjacency.nnz());
    features_ = std::move(workload.features);
    model_ = std::make_unique<GcnModel>(GcnModel::with_random_weights(
        std::move(a_hat), features_.cols(), {16, 16}, seed_ + 7));
  }

  Tally iterate(SpanRecorder& rec) override {
    Tally tally;
    for (const Dataflow flow : kFlows) {
      GcnModel::InferenceRequest request;
      request.flow = flow;
      request.features = &features_;
      ++tally.attempted;
      try {
        GcnModel::InferenceResult result;
        tally.flows[flow_slot(flow)].host_s +=
            rec.time(std::string("core.") + kFlowKeys[flow_slot(flow)],
                     [&] { result = model_->run(request); });
        if (!result.verified) ++tally.failed;
        for (std::size_t l = 0; l < result.layers.size(); ++l) {
          const LayerRunResult& layer = result.layers[l];
          tally.add(flow, l, layer.stats, layer.combination_stats,
                    layer.aggregation_stats, layer.hybrid_info);
        }
        if (flow == Dataflow::kHybrid) {
          tally.extra["graph.sort_s"] = result.total_preprocess_ms / 1e3;
        }
      } catch (const std::exception& e) {
        ++tally.failed;
        std::cerr << "infer-cs " << to_string(flow) << " threw: " << e.what()
                  << '\n';
      }
    }
    tally.extra["graph.adj_nnz"] = adj_nnz_;
    tally.extra["graph.feat_nnz"] = static_cast<double>(features_.nnz());
    return tally;
  }

  void traced_extras(SpanRecorder& rec, Tally&) override {
    // The golden model every verified run recomputes, timed once.
    rec.time("linalg.reference",
             [&] { (void)model_->reference(features_); });
  }

 private:
  std::uint64_t seed_;
  double adj_nnz_ = 0.0;
  CsrMatrix features_;
  std::unique_ptr<GcnModel> model_;
};

// --- SweepRunner workloads ------------------------------------------------

/// Shared shape of the two SweepRunner workloads: the workload is
/// built once through the runner's WorkloadCache (golden layer and
/// degree sort included) during set-up.
class SweepWorkload : public Workload {
 public:
  SweepWorkload(const char* abbrev, std::uint64_t seed, SweepOptions options,
                std::vector<AcceleratorConfig> configs = {AcceleratorConfig{}})
      : spec_(dataset(abbrev)),
        seed_(seed),
        options_(std::move(options)),
        configs_(std::move(configs)) {}

  void setup(SpanRecorder& rec) override {
    if (rec.enabled()) {
      // The cache builds in one call; in the traced run the same
      // public functions also run standalone on the same inputs, so
      // each gets its own span.
      GcnWorkload workload;
      rec.time("graph.build",
               [&] { workload = build_workload(spec_, 1.0, seed_); });
      CsrMatrix a_hat;
      rec.time("linalg.normalize",
               [&] { a_hat = normalize_adjacency(workload.adjacency); });
      const DenseMatrix weights = DenseMatrix::random(
          workload.features.cols(), workload.spec.layer_dim, seed_ + 7);
      rec.time("linalg.reference", [&] {
        (void)gcn_layer_reference(a_hat, workload.features, weights, false);
      });
    }
    runner_ = std::make_unique<SweepRunner>(options_);
    rec.time("sweep.cache_build", [&] {
      prepared_ = runner_->cache().get(spec_, 1.0, seed_);
    });
    rec.time("graph.sort", [&] { (void)prepared_->sort(); });
  }

 protected:
  SweepSpec grid() const {
    SweepSpec spec;
    spec.datasets = {spec_};
    spec.scale = 1.0;
    spec.seed = seed_;
    spec.configs = configs_;
    return spec;
  }

  /// Runs the grid through the runner and tallies every cell.
  SweepRun run_grid(SpanRecorder& rec, Tally& tally) {
    SweepRun run;
    const std::size_t cells = grid().cells().size();
    try {
      const double run_s =
          rec.time("sweep.run", [&] { run = runner_->run(grid()); });
      double cell_s = 0.0;
      for (const SweepCellResult& cell : run.cells) {
        tally.add(cell.result);
        cell_s += cell.result.sim_wall_ms / 1e3;
      }
      const double workers = options_.threads;
      tally.extra["sweep.run_s"] = run_s;
      tally.extra["sweep.cells"] = static_cast<double>(run.cells.size());
      tally.extra["sweep.cells_per_s"] = ratio(run.cells.size(), run_s);
      tally.extra["sweep.parallel_eff"] = ratio(cell_s, run_s * workers);
      tally.extra["sweep.cache_builds"] =
          static_cast<double>(runner_->cache().build_count());
      check(runner_->cache().build_count() == 1,
            "the workload cache built more than once");
    } catch (const std::exception& e) {
      tally.attempted += cells;
      tally.failed += cells;
      std::cerr << "sweep threw: " << e.what() << '\n';
    }
    const auto key = [](const SweepCellResult& c) {
      std::vector<std::uint64_t> k = timing_key(c.result.stats);
      k.push_back(static_cast<std::uint64_t>(c.cell.flow));
      return k;
    };
    std::size_t repeats = 0, comb_shared = 0;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      bool repeat = false, shared = false;
      for (std::size_t j = 0; j < i; ++j) {
        repeat = repeat || key(run.cells[j]) == key(run.cells[i]);
        shared = shared ||
                 timing_key(run.cells[j].result.combination_stats) ==
                     timing_key(run.cells[i].result.combination_stats);
      }
      repeats += repeat;
      comb_shared += shared;
    }
    tally.extra["sweep.repeat_frac"] = ratio(repeats, run.cells.size());
    tally.extra["sweep.comb_shared_frac"] =
        ratio(comb_shared, run.cells.size());
    tally.extra["graph.adj_nnz"] =
        static_cast<double>(prepared_->workload().adjacency.nnz());
    tally.extra["graph.feat_nnz"] =
        static_cast<double>(prepared_->workload().features.nnz());
    return run;
  }

  DatasetSpec spec_;
  std::uint64_t seed_;
  SweepOptions options_;
  std::vector<AcceleratorConfig> configs_;
  std::unique_ptr<SweepRunner> runner_;
  std::shared_ptr<const PreparedWorkload> prepared_;
};

SweepOptions observed_options() {
  SweepOptions options;
  options.threads = 1;
  options.observe = true;
  options.observer_options.trace = true;
  options.observer_options.sample_interval =
      AcceleratorConfig{}.obs_sample_interval;
  options.observer_options.timeseries = true;
  options.observer_options.spatial = true;
  options.group_key = [](const SweepCell&) { return std::string("all"); };
  return options;
}

/// What `hymm_sim --dataset AP --trace --json --timeseries --spatial`
/// does, through the same library calls: all three flows serially in
/// one observer group, then the trace and the run report serialized
/// into a byte-counting sink.
class ObservedAp : public SweepWorkload {
 public:
  explicit ObservedAp(std::uint64_t seed)
      : SweepWorkload("AP", seed, observed_options()) {}

  Tally iterate(SpanRecorder& rec) override {
    Tally tally;
    const SweepRun run = run_grid(rec, tally);
    if (run.groups.empty() || run.groups.front().observer == nullptr) {
      check(false, "observed-ap ran without an observer");
      return tally;
    }
    const Observer& observer = *run.groups.front().observer;
    std::vector<ExperimentResult> results;
    for (const SweepCellResult& cell : run.cells) {
      results.push_back(cell.result);
    }
    CountingBuf trace_buf, report_buf;
    std::ostream trace_out(&trace_buf), report_out(&report_buf);
    const double trace_s = rec.time(
        "obs.write_trace", [&] { observer.trace().write(trace_out); });
    const double report_s = rec.time("obs.write_report", [&] {
      write_results_json(results, report_out, &observer.metrics(),
                         &observer.trace());
    });
    tally.extra["obs.sim_s"] = tally.extra["sweep.run_s"];
    tally.extra["obs.trace_events"] =
        static_cast<double>(observer.trace().event_count());
    tally.extra["obs.trace_mb"] = trace_buf.bytes() / 1e6;
    tally.extra["obs.report_mb"] = report_buf.bytes() / 1e6;
    tally.extra["obs.write_trace_s"] = trace_s;
    tally.extra["obs.write_report_s"] = report_s;
    observed_ = std::move(results);
    return tally;
  }

  void traced_extras(SpanRecorder& rec, Tally& tally) override {
    // The same cells without an observer: the difference is what the
    // instruments cost, and the cycles must not differ at all.
    SweepOptions plain;
    plain.threads = 1;
    SweepRunner runner(plain);
    SweepSpec spec = grid();
    spec.datasets.clear();
    spec.workloads = {prepared_};
    SweepRun run;
    const double plain_s =
        rec.time("obs.unobserved_run", [&] { run = runner.run(spec); });
    tally.extra["obs.overhead_s"] = tally.extra["obs.sim_s"] - plain_s;
    check(run.cells.size() == observed_.size(),
          "unobserved run has a different cell count");
    for (std::size_t i = 0; i < run.cells.size() && i < observed_.size();
         ++i) {
      check(timing_key(run.cells[i].result.stats) ==
                timing_key(observed_[i].stats),
            "observer changed the timing of cell " + std::to_string(i));
    }
  }

 private:
  std::vector<ExperimentResult> observed_;
};

SweepOptions parallel_options() {
  SweepOptions options;
  options.threads = 4;
  return options;
}

/// DMB {128, 256} KB x tiling threshold {0.10, 0.20, 0.35}.
std::vector<AcceleratorConfig> dmb_threshold_grid() {
  std::vector<AcceleratorConfig> out;
  for (const std::size_t kb : {128, 256}) {
    for (const double threshold : {0.10, 0.20, 0.35}) {
      AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.tiling_threshold = threshold;
      out.push_back(config);
    }
  }
  return out;
}

/// An 18-cell grid on the AC stand-in: DMB {128, 256} KB x tiling
/// threshold {0.10, 0.20, 0.35} x three flows, on 4 workers.
class SweepAc : public SweepWorkload {
 public:
  explicit SweepAc(std::uint64_t seed)
      : SweepWorkload("AC", seed, parallel_options(), dmb_threshold_grid()) {}

  Tally iterate(SpanRecorder& rec) override {
    Tally tally;
    const SweepRun run = run_grid(rec, tally);
    // RWP and OP ignore the tiling threshold, so their cells at 0.20
    // and 0.35 must repeat the 0.10 cell of the same DMB size exactly.
    for (const SweepCellResult& cell : run.cells) {
      if (cell.cell.flow == Dataflow::kHybrid) continue;
      for (const SweepCellResult& first : run.cells) {
        if (first.cell.flow != cell.cell.flow ||
            first.cell.config.dmb_bytes != cell.cell.config.dmb_bytes) {
          continue;
        }
        check(timing_key(first.result.stats) == timing_key(cell.result.stats) &&
                  timing_key(first.result.combination_stats) ==
                      timing_key(cell.result.combination_stats),
              "sweep-ac cell " + std::to_string(cell.cell.index) +
                  " differs from cell " + std::to_string(first.cell.index));
        break;
      }
    }
    return tally;
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "infer-cs") return std::make_unique<InferCs>(seed);
  if (name == "observed-ap") return std::make_unique<ObservedAp>(seed);
  if (name == "sweep-ac") return std::make_unique<SweepAc>(seed);
  return nullptr;
}

// --- metrics ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
  std::size_t samples = 1;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Tally& t, std::size_t attempted,
                               std::size_t failed,
                               const std::vector<double>& walls,
                               const std::vector<double>& setups) {
  const SimStats& hymm = t.flows[0].total;
  const double hymm_cycles = static_cast<double>(hymm.cycles);
  return {
      {"wall_s", median(walls), "s", "lower", walls.size()},
      {"setup_s", median(setups), "s", "lower", setups.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", "lower", 1},
      {"hymm_cycles", hymm_cycles, "cycles", "lower", 1},
      {"speedup_vs_rwp",
       ratio(static_cast<double>(t.flows[1].total.cycles), hymm_cycles), "x",
       "higher", 1},
      {"speedup_vs_op",
       ratio(static_cast<double>(t.flows[2].total.cycles), hymm_cycles), "x",
       "higher", 1},
      {"hymm_dram_mb", hymm.dram_total_bytes() / 1e6, "MB", "lower", 1},
      {"verified_frac",
       ratio(static_cast<double>(attempted - failed),
             static_cast<double>(attempted)),
       "ratio", "higher", 1},
  };
}

std::vector<Metric> per_layer(const Tally& t, const SpanRecorder& rec,
                              double traced_wall, double untraced_wall,
                              double calibration) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, const char* unit,
                        const char* better) {
    m.push_back({std::move(name), value, unit, better, 1});
  };
  const auto extra = [&t](const std::string& name) {
    const auto it = t.extra.find(name);
    return it == t.extra.end() ? 0.0 : it->second;
  };
  // Set-up spans carry run -1; the traced iteration is run 0.
  const auto span = [&rec](const char* name) {
    return rec.total(name, -1) + rec.total(name, 0);
  };

  add("graph.build_s", span("graph.build"), "s", "lower");
  add("graph.sort_s", span("graph.sort") + extra("graph.sort_s"), "s",
      "lower");
  add("graph.adj_nnz", extra("graph.adj_nnz"), "count", "lower");
  add("graph.feat_nnz", extra("graph.feat_nnz"), "count", "lower");
  add("linalg.normalize_s", span("linalg.normalize"), "s", "lower");
  add("linalg.reference_s", span("linalg.reference"), "s", "lower");

  for (std::size_t f = 0; f < kFlows.size(); ++f) {
    const Tally::Flow& flow = t.flows[f];
    const std::string core = std::string("core.") + kFlowKeys[f] + ".";
    const double cycles = static_cast<double>(flow.total.cycles);
    add(core + "host_s", flow.host_s, "s", "lower");
    add(core + "mcycles_per_s", ratio(cycles / 1e6, flow.host_s), "Mcycles/s",
        "higher");
    add(core + "skipped_frac",
        ratio(static_cast<double>(flow.total.skipped_cycles), cycles), "ratio",
        "higher");
    add(core + "cycles", cycles, "cycles", "lower");
    add(core + "comb_cycles", static_cast<double>(flow.comb.cycles), "cycles",
        "lower");
    add(core + "agg_cycles", static_cast<double>(flow.agg.cycles), "cycles",
        "lower");
    for (std::size_t l = 0; l < flow.layer.size(); ++l) {
      const std::string layer = core + "l" + std::to_string(l + 1) + ".";
      add(layer + "cycles", static_cast<double>(flow.layer[l].cycles),
          "cycles", "lower");
      add(layer + "comb_cycles", static_cast<double>(flow.layer_comb[l].cycles),
          "cycles", "lower");
      add(layer + "agg_cycles", static_cast<double>(flow.layer_agg[l].cycles),
          "cycles", "lower");
    }
  }
  for (std::size_t r = 0; r < t.regions.size(); ++r) {
    add("core.hymm.region" + std::to_string(r + 1) + "_cycles",
        static_cast<double>(t.regions[r].cycles), "cycles", "lower");
  }

  for (std::size_t f = 0; f < kFlows.size(); ++f) {
    const SimStats& s = t.flows[f].total;
    const std::string sim = std::string("sim.") + kFlowKeys[f] + ".";
    for (std::size_t b = 0; b < kStallCauseCount; ++b) {
      add(sim + "stall." + stall_cause_key(static_cast<StallCause>(b)),
          static_cast<double>(s.stall_cycles[b]), "cycles", "lower");
    }
    add(sim + "dmb_hit_rate", s.dmb_hit_rate(), "ratio", "higher");
    for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
      add(sim + "dram_mb." + kTrafficKeys[c], dram_bytes(s, c) / 1e6, "MB",
          "lower");
    }
    add(sim + "alu_util", s.alu_utilization(), "ratio", "higher");
    add(sim + "lsq_forwards", static_cast<double>(s.lsq_forwards), "count",
        "higher");
    add(sim + "partial_peak_kb", s.partial_bytes_peak / 1e3, "KB", "lower");
  }

  for (const char* name : {"obs.sim_s", "obs.overhead_s"}) {
    add(name, extra(name), "s", "lower");
  }
  add("obs.trace_events", extra("obs.trace_events"), "count", "lower");
  for (const char* name : {"obs.trace_mb", "obs.report_mb"}) {
    add(name, extra(name), "MB", "lower");
  }
  for (const char* name : {"obs.write_trace_s", "obs.write_report_s"}) {
    add(name, extra(name), "s", "lower");
  }

  add("sweep.run_s", extra("sweep.run_s"), "s", "lower");
  add("sweep.cells", extra("sweep.cells"), "count", "higher");
  add("sweep.cells_per_s", extra("sweep.cells_per_s"), "1/s", "higher");
  add("sweep.parallel_eff", extra("sweep.parallel_eff"), "ratio", "higher");
  add("sweep.repeat_frac", extra("sweep.repeat_frac"), "ratio", "higher");
  add("sweep.comb_shared_frac", extra("sweep.comb_shared_frac"), "ratio",
      "higher");
  add("sweep.cache_builds", extra("sweep.cache_builds"), "count", "lower");

  add("trace.wall_s", traced_wall, "s", "lower");
  add("trace.overhead_s", traced_wall - untraced_wall, "s", "lower");
  add("host.calibration_s", calibration, "s", "lower");
  return m;
}

void print_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  out << '"';
}

void print_result(const std::string& workload, std::uint64_t seed,
                  bool trace, bool correct, std::size_t attempted,
                  std::size_t failed, const std::vector<std::string>& problems,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"workload\": ";
  print_json_string(out, workload);
  out << ", \"seed\": " << seed << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out << ", ";
    print_json_string(out, problems[i]);
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\", \"better\": \"" << m.better
        << "\", \"samples\": " << m.samples << "}";
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload infer-cs|observed-ap|sweep-ac"
               " [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n";
  return 2;
}

int run(const Args& args) {
  if (make_workload(args.workload, args.seed) == nullptr) {
    return usage("unknown workload '" + args.workload + "'");
  }
  std::unique_ptr<Workload> workload;
  SpanRecorder untraced(false);
  SpanRecorder traced(true);
  SpanRecorder& setup_rec = args.trace ? traced : untraced;

  // The calibration kernel runs before the first set-up and after every
  // set-up and iteration, so each of those is bracketed by two samples.
  std::vector<double> calibrations = {calibration_seconds()};
  const auto calibrate = [&calibrations](double seconds) {
    calibrations.push_back(calibration_seconds());
    const std::size_t n = calibrations.size();
    return seconds * kCalibrationReferenceSeconds /
           (0.5 * (calibrations[n - 2] + calibrations[n - 1]));
  };

  // Set-up, repeated; each build is destroyed before the next so the
  // peak resident set holds one copy.
  std::vector<double> setups;  // at the reference speed
  double setup_total = 0.0;    // host seconds
  const int min_setups = args.trace ? 1 : kMinSetups;
  const int max_setups = args.trace ? 1 : kMaxSetups;
  for (int i = 0; i < max_setups &&
                  (i < min_setups || setup_total < kSetupSeconds);
       ++i) {
    workload.reset();
    workload = make_workload(args.workload, args.seed);
    const double seconds =
        setup_rec.time("setup", [&] { workload->setup(setup_rec); });
    setup_total += seconds;
    setups.push_back(calibrate(seconds));
  }

  // Timed iterations, untraced, until the budget is spent.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<double> walls;      // host seconds
  std::vector<double> ref_walls;  // at the reference speed
  std::size_t attempted = 0, failed = 0;
  Tally first;
  // Stops before an iteration that would overrun the budget, so a run
  // lasts about `seconds` whatever one iteration costs.
  for (int i = 0;
       i < kMinIterations || elapsed() + median(walls) <= args.seconds; ++i) {
    Tally t;
    walls.push_back(
        untraced.time("iteration", [&] { t = workload->iterate(untraced); }));
    ref_walls.push_back(calibrate(walls.back()));
    std::cerr << args.workload << " iteration " << i << ": " << walls.back()
              << " s, " << ref_walls.back() << " reference s\n";
    attempted += t.attempted;
    failed += t.failed;
    if (i == 0) {
      first = std::move(t);
    } else if (t.signature() != first.signature()) {
      workload->problems.push_back(
          "modeled counters changed between iterations");
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    traced.set_run(0);
    Tally t;
    const double traced_wall =
        traced.time("iteration", [&] { t = workload->iterate(traced); });
    workload->traced_extras(traced, t);
    attempted += t.attempted;
    failed += t.failed;
    if (t.signature() != first.signature()) {
      workload->problems.push_back(
          "traced run's modeled counters differ from the untraced runs'");
    }
    metrics = per_layer(t, traced, traced_wall, median(walls),
                        median(calibrations));
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      traced.write_json(out);
      if (!out) {
        workload->problems.push_back("failed to write " + args.spans_path);
      }
    }
  } else {
    metrics = end_to_end(first, attempted, failed, ref_walls, setups);
  }
  const bool correct = workload->problems.empty() && failed == 0;
  print_result(args.workload, args.seed, args.trace, correct, attempted,
               failed, workload->problems, metrics);
  for (const std::string& p : workload->problems) {
    std::cerr << "check failed: " << p << '\n';
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  Args args;
  const std::vector<std::string> argv_list(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < argv_list.size(); ++i) {
      const std::string& flag = argv_list[i];
      if (i + 1 >= argv_list.size()) {
        return perfbench::usage("missing value for " + flag);
      }
      const std::string& value = argv_list[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return perfbench::usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        return perfbench::usage("unknown argument " + flag);
      }
      if (used != 0 && used != value.size()) {
        return perfbench::usage("invalid value '" + value + "' for " + flag);
      }
    }
  } catch (const std::exception&) {
    return perfbench::usage("invalid numeric value");
  }
  if (args.workload.empty()) return perfbench::usage("--workload is required");
  return perfbench::run(args);
}
