// Windowed time-series telemetry acceptance suite
// (obs/timeseries.hpp): the TimeSeries schedule/decimation unit
// behavior, and the tentpole determinism contracts — series
// bit-identical between fast-forward and the legacy per-cycle loop,
// bit-identical across sweep thread counts, and timing bit-identical
// with the sampler on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_sort.hpp"
#include "linalg/gcn.hpp"
#include "obs/observer.hpp"
#include "sweep/sweep.hpp"

namespace hymm {
namespace {

TimeSeriesSample sample_at(Cycle cycle) {
  TimeSeriesSample s;
  s.cycle = cycle;
  s.lsq_depth = cycle;  // any payload; equality covers all fields
  return s;
}

TEST(TimeSeries, ScheduleAdvancesByInterval) {
  TimeSeries ts(/*interval=*/10, /*capacity=*/8);
  EXPECT_EQ(ts.next_due(), 0u);
  ts.record(sample_at(0));
  EXPECT_EQ(ts.next_due(), 10u);
  // Late samples realign from the actual cycle, not the due cycle.
  ts.record(sample_at(13));
  EXPECT_EQ(ts.next_due(), 23u);
  EXPECT_EQ(ts.samples().size(), 2u);
}

TEST(TimeSeries, ForcedSampleDeduplicatesPerCycle) {
  TimeSeries ts(/*interval=*/10, /*capacity=*/8);
  ts.record(sample_at(10));
  ts.record_forced(sample_at(10));  // same cycle: dropped
  EXPECT_EQ(ts.samples().size(), 1u);
  ts.record_forced(sample_at(14));  // off-schedule: recorded
  EXPECT_EQ(ts.samples().size(), 2u);
  EXPECT_EQ(ts.next_due(), 24u);  // schedule realigned
}

TEST(TimeSeries, CapacityThinsToEveryOtherSampleAndDoublesInterval) {
  TimeSeries ts(/*interval=*/10, /*capacity=*/4);
  for (const Cycle c : {Cycle{10}, Cycle{20}, Cycle{30}}) {
    ts.record(sample_at(c));
  }
  EXPECT_EQ(ts.samples().size(), 3u);
  EXPECT_EQ(ts.interval(), 10u);
  ts.record(sample_at(40));  // hits capacity: decimate
  ASSERT_EQ(ts.samples().size(), 2u);
  EXPECT_EQ(ts.samples()[0].cycle, 10u);
  EXPECT_EQ(ts.samples()[1].cycle, 30u);
  EXPECT_EQ(ts.interval(), 20u);
}

TEST(TimeSeries, TakeMovesSamplesAndResetsSchedule) {
  TimeSeries ts(/*interval=*/10, /*capacity=*/4);
  ts.record(sample_at(10));
  ts.record(sample_at(20));
  const TimeSeriesData data = ts.take();
  EXPECT_EQ(data.interval, 10u);
  ASSERT_EQ(data.samples.size(), 2u);
  EXPECT_EQ(data.samples[1].cycle, 20u);
  // The series is ready for the next run from cycle 0.
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.next_due(), 0u);
  EXPECT_EQ(ts.interval(), 10u);
  ts.record(sample_at(0));
  EXPECT_EQ(ts.samples().size(), 1u);
}

// --- Simulation-level determinism contracts ---

// Restores the process-wide fast-forward mode on scope exit.
class ModeGuard {
 public:
  ModeGuard() : saved_(fast_forward_mode()) {}
  ~ModeGuard() { set_fast_forward_mode(saved_); }

 private:
  FastForwardMode saved_;
};

struct Fixture {
  GcnWorkload workload;
  CsrMatrix a_hat;
  DenseMatrix weights;
  DenseMatrix reference;
};

Fixture build_fixture(double scale) {
  const DatasetSpec spec = *find_dataset("CR");
  Fixture f;
  f.workload = build_workload(spec, scale, /*seed=*/42);
  f.a_hat = normalize_adjacency(f.workload.adjacency);
  f.weights = DenseMatrix::random(f.workload.spec.feature_length,
                                  f.workload.spec.layer_dim, 49);
  f.reference =
      gcn_layer_reference(f.a_hat, f.workload.features, f.weights, false)
          .aggregation;
  return f;
}

ExperimentResult run_with_observer(const Fixture& f, Dataflow flow,
                                   Observer* obs) {
  ExperimentRequest request;
  request.workload = &f.workload;
  request.a_hat = &f.a_hat;
  request.weights = &f.weights;
  request.reference = &f.reference;
  request.flow = flow;
  request.config = AcceleratorConfig{};
  request.observer = obs;
  return run_experiment(request);
}

// Sampling must not perturb timing: with the sampler on, cycles,
// stall accounting and DRAM traffic are bit-identical to a bare run.
TEST(TimeSeriesSim, SamplerNeverAffectsTiming) {
  const Fixture f = build_fixture(0.1);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const ExperimentResult bare = run_with_observer(f, flow, nullptr);

    ObserverOptions options;
    options.timeseries = true;
    options.timeseries_interval = 64;
    Observer obs(options);
    obs.begin_run("ts");
    const ExperimentResult sampled = run_with_observer(f, flow, &obs);

    EXPECT_EQ(bare.stats.cycles, sampled.stats.cycles);
    EXPECT_EQ(bare.stats.stall_cycles, sampled.stats.stall_cycles);
    EXPECT_EQ(bare.stats.dram_total_bytes(),
              sampled.stats.dram_total_bytes());
    EXPECT_TRUE(bare.timeseries.empty());
    EXPECT_FALSE(sampled.timeseries.empty());
  }
}

// The tentpole bit-identity guarantee: the fast-forward replay path
// reconstructs the exact per-cycle samples the legacy loop takes, so
// the two series compare equal field-for-field.
TEST(TimeSeriesSim, SeriesBitIdenticalUnderFastForward) {
  ModeGuard guard;
  const Fixture f = build_fixture(0.1);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    std::vector<TimeSeriesData> series;
    for (const FastForwardMode mode :
         {FastForwardMode::kOff, FastForwardMode::kOn,
          FastForwardMode::kCheck}) {
      set_fast_forward_mode(mode);
      ObserverOptions options;
      options.timeseries = true;
      options.timeseries_interval = 64;
      Observer obs(options);
      obs.begin_run("ts");
      series.push_back(run_with_observer(f, flow, &obs).timeseries);
    }
    ASSERT_FALSE(series[0].empty());
    EXPECT_EQ(series[0].interval, series[1].interval);
    EXPECT_EQ(series[0].samples, series[1].samples);  // off vs on
    EXPECT_EQ(series[0].samples, series[2].samples);  // off vs check
  }
}

// The latency histograms ride the same mode-invariant observation
// points, so their quantiles match across fast-forward modes too.
TEST(TimeSeriesSim, HistogramsBitIdenticalUnderFastForward) {
  ModeGuard guard;
  const Fixture f = build_fixture(0.1);
  std::vector<RunHistograms> hists;
  for (const FastForwardMode mode :
       {FastForwardMode::kOff, FastForwardMode::kOn}) {
    set_fast_forward_mode(mode);
    Observer obs;
    obs.begin_run("hist");
    hists.push_back(
        run_with_observer(f, Dataflow::kHybrid, &obs).histograms);
  }
  ASSERT_FALSE(hists[0].empty());
  const auto expect_same = [](const LogHistogram& a, const LogHistogram& b,
                              const char* name) {
    SCOPED_TRACE(name);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
    EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
  };
  expect_same(hists[0].lsq_load_latency, hists[1].lsq_load_latency, "lsq");
  expect_same(hists[0].dram_read_latency, hists[1].dram_read_latency,
              "dram");
  expect_same(hists[0].dmb_fill_latency, hists[1].dmb_fill_latency, "dmb");
  expect_same(hists[0].phase_cycles, hists[1].phase_cycles, "phase");
}

// Per-cell series must be independent of the sweep thread count: each
// run has its own Observer-owned series, drained per cell.
TEST(TimeSeriesSim, SweepSeriesIndependentOfThreadCount) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.1;
  spec.flows = {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
                Dataflow::kHybrid};

  const auto run_at = [&spec](unsigned threads) {
    SweepOptions options;
    options.threads = threads;
    options.observe = true;
    options.observer_options.timeseries = true;
    options.observer_options.timeseries_interval = 64;
    SweepRunner runner(options);
    return runner.run(spec);
  };

  const SweepRun serial = run_at(1);
  const SweepRun parallel = run_at(4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const ExperimentResult& a = serial.cells[i].result;
    const ExperimentResult& b = parallel.cells[i].result;
    SCOPED_TRACE(a.abbrev + "/" + to_string(a.flow));
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    ASSERT_FALSE(a.timeseries.empty());
    EXPECT_EQ(a.timeseries.interval, b.timeseries.interval);
    EXPECT_EQ(a.timeseries.samples, b.timeseries.samples);
  }
}

}  // namespace
}  // namespace hymm
