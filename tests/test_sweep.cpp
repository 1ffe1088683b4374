// Sweep-executor invariants: a multi-threaded sweep returns results
// in stable grid order with per-cell counters bit-identical to the
// serial path, the WorkloadCache builds each (spec, scale, seed) key
// exactly once no matter how many threads race on it, observer
// groups serialize their cells in grid order, and cells that reuse
// shared work equal their cold runs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "linalg/gcn.hpp"
#include "sweep/sweep.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {
namespace {

SweepSpec small_grid() {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR"), *find_dataset("AP")};
  AcceleratorConfig small_dmb;
  small_dmb.dmb_bytes = 64 * 1024;
  spec.configs = {AcceleratorConfig{}, small_dmb};
  spec.scale = 0.05;
  spec.seed = 3;
  return spec;
}

// Every counter a perf snapshot or figure reads must be bit-identical
// between a serial and a 4-worker run of the same grid. Two tiling
// thresholds per DMB size make cells share work, so which cells are
// deduped, which build a combination phase and which restore it must
// not depend on the thread count either.
TEST(SweepDeterminism, ThreadCountDoesNotChangeResults) {
  SweepSpec spec = small_grid();
  for (AcceleratorConfig config : small_grid().configs) {
    config.tiling_threshold = 0.35;
    spec.configs.push_back(config);
  }

  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepRunner serial(serial_options);
  const SweepRun base = serial.run(spec);

  SweepOptions parallel_options;
  parallel_options.threads = 4;
  SweepRunner parallel(parallel_options);
  const SweepRun threaded = parallel.run(spec);

  ASSERT_EQ(base.cells.size(), threaded.cells.size());
  ASSERT_EQ(base.cells.size(),
            spec.datasets.size() * spec.configs.size() * spec.flows.size());
  std::size_t reused = 0;
  std::size_t restored = 0;
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const ExperimentResult& a = base.cells[i].result;
    const ExperimentResult& b = threaded.cells[i].result;
    SCOPED_TRACE(a.abbrev + "/" + to_string(a.flow) + " cell " +
                 std::to_string(i));
    EXPECT_EQ(base.cells[i].cell.index, i);
    EXPECT_EQ(threaded.cells[i].cell.index, i);
    EXPECT_EQ(a.abbrev, b.abbrev);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mac_ops, b.stats.mac_ops);
    EXPECT_EQ(a.stats.dram_total_bytes(), b.stats.dram_total_bytes());
    EXPECT_EQ(a.stats.dram_read_bytes, b.stats.dram_read_bytes);
    EXPECT_EQ(a.stats.dram_write_bytes, b.stats.dram_write_bytes);
    EXPECT_EQ(a.stats.partial_bytes_peak, b.stats.partial_bytes_peak);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(a.checkpoint.built, b.checkpoint.built);
    EXPECT_EQ(a.checkpoint.restored, b.checkpoint.restored);
    EXPECT_EQ(base.cells[i].reused_from, threaded.cells[i].reused_from);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    reused += base.cells[i].reused_from.has_value();
    restored += a.checkpoint.restored;
  }
  // RWP and OP ignore the threshold: their 0.35 cells are deduped. The
  // hybrid's 0.35 cells restore the 0.20 cell's combination phase.
  EXPECT_EQ(reused, spec.datasets.size() * 2 * 2);
  EXPECT_EQ(restored, spec.datasets.size() * 2);
}

// The threaded sweep must match the historical serial path
// (compare_dataflows) cycle-for-cycle, including the hybrid whose
// degree sort the sweep precomputes and shares.
TEST(SweepDeterminism, MatchesCompareDataflows) {
  const DatasetSpec cr = *find_dataset("CR");

  SweepSpec spec;
  spec.datasets = {cr};
  spec.scale = 0.25;
  spec.seed = 42;
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  const SweepRun run = runner.run(spec);

  const DataflowComparison reference =
      compare_dataflows(cr, AcceleratorConfig{}, spec.flows, 0.25, 42);
  ASSERT_EQ(run.cells.size(), reference.results.size());
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const ExperimentResult& a = run.cells[i].result;
    const ExperimentResult& b = reference.results[i];
    SCOPED_TRACE(to_string(b.flow));
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.dram_total_bytes(), b.stats.dram_total_bytes());
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
  }
}

// Cells expand dataset-major, then config, then flow, with index
// equal to the position — the contract bench_common's [config][dataset]
// indexing decodes.
TEST(SweepSpecTest, CellsExpandInStableGridOrder) {
  const SweepSpec spec = small_grid();
  const std::vector<SweepCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u * 2u * 3u);
  std::size_t i = 0;
  for (std::size_t d = 0; d < spec.datasets.size(); ++d) {
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
      for (const Dataflow flow : spec.flows) {
        SCOPED_TRACE(i);
        EXPECT_EQ(cells[i].index, i);
        EXPECT_EQ(cells[i].spec.abbrev, spec.datasets[d].abbrev);
        EXPECT_EQ(cells[i].config_index, c);
        EXPECT_EQ(cells[i].flow, flow);
        EXPECT_EQ(cells[i].scale, 0.05);
        EXPECT_EQ(cells[i].seed, 3u);
        ++i;
      }
    }
  }
}

// One grid's worth of flows and configs shares a single workload
// build per dataset.
TEST(SweepRunnerTest, CacheBuildsOncePerDataset) {
  const SweepSpec spec = small_grid();
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  runner.run(spec);
  EXPECT_EQ(runner.cache().build_count(), spec.datasets.size());
}

// Cells mapped to one group share an Observer and run serially in
// grid order; groups come back ordered by their first cell.
TEST(SweepRunnerTest, GroupsShareOneObserverAndKeepGridOrder) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.05;

  SweepOptions options;
  options.threads = 4;
  options.observe = true;
  options.group_key = [](const SweepCell&) { return std::string("all"); };
  SweepRunner runner(options);
  const SweepRun run = runner.run(spec);

  ASSERT_EQ(run.groups.size(), 1u);
  const SweepGroup& group = run.groups.front();
  EXPECT_NE(group.observer, nullptr);
  ASSERT_EQ(group.cells.size(), spec.flows.size());
  for (std::size_t i = 0; i < group.cells.size(); ++i) {
    EXPECT_EQ(group.cells[i], i);
  }
  // The shared observer saw one run per flow (pid 0-based, bumped on
  // every begin_run after the first).
  EXPECT_EQ(group.observer->run_pid(),
            static_cast<int>(spec.flows.size()) - 1);
}

// A worker exception surfaces on the calling thread instead of being
// swallowed (here: a grid whose dataset cannot be built).
TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(hits.size(), threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
  // Zero items is a no-op, not a hang.
  parallel_for(0, 4, [](std::size_t) { FAIL() << "body ran for count=0"; });
}

TEST(ParallelForTest, PropagatesTheFirstException) {
  EXPECT_THROW(parallel_for(8, 4,
                            [](std::size_t i) {
                              if (i % 2 == 1) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(SweepRunnerTest, WorkerExceptionsPropagate) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.05;
  spec.configs[0].dmb_bytes = 0;  // rejected by the accelerator's checks
  SweepOptions options;
  options.threads = 2;
  SweepRunner runner(options);
  EXPECT_THROW(runner.run(spec), std::exception);
}

// The request API is deterministic: running the identical request
// twice produces bit-identical results. (The deprecated positional
// run_experiment overload this used to compare against is gone.)
TEST(ExperimentRequestTest, RepeatedRequestIsDeterministic) {
  PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);

  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.flow = Dataflow::kRowWiseProduct;
  const ExperimentResult first = run_experiment(request);
  const ExperimentResult second = run_experiment(request);

  EXPECT_EQ(first.stats.cycles, second.stats.cycles);
  EXPECT_EQ(first.stats.dram_total_bytes(),
            second.stats.dram_total_bytes());
  EXPECT_EQ(first.stats.stall_cycles, second.stats.stall_cycles);
  EXPECT_TRUE(first.verified);
}

// Handing the hybrid its precomputed degree sort must not change the
// simulated cycles — sorting is host-side preprocessing.
TEST(ExperimentRequestTest, PrecomputedSortDoesNotChangeCycles) {
  PreparedWorkload prepared(*find_dataset("CR"), 0.1, 42);

  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.flow = Dataflow::kHybrid;
  const ExperimentResult internal_sort = run_experiment(request);

  request.sort = &prepared.sort();
  request.sorted_features = &prepared.sorted_features();
  const ExperimentResult precomputed_sort = run_experiment(request);

  EXPECT_EQ(internal_sort.stats.cycles, precomputed_sort.stats.cycles);
  EXPECT_EQ(internal_sort.stats.dram_total_bytes(),
            precomputed_sort.stats.dram_total_bytes());
  EXPECT_EQ(internal_sort.stats.stall_cycles,
            precomputed_sort.stats.stall_cycles);
  EXPECT_TRUE(precomputed_sort.verified);
}

TEST(WorkloadCacheTest, ConcurrentGetsBuildOnce) {
  WorkloadCache cache;
  const DatasetSpec cr = *find_dataset("CR");

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PreparedWorkload>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = cache.get(cr, 0.05, 7);
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(cache.build_count(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // same shared instance, not a copy
  }
}

TEST(WorkloadCacheTest, DistinctKeysBuildSeparately) {
  WorkloadCache cache;
  const DatasetSpec cr = *find_dataset("CR");
  const auto a = cache.get(cr, 0.05, 7);
  const auto b = cache.get(cr, 0.05, 8);   // different seed
  const auto c = cache.get(cr, 0.10, 7);   // different scale
  const auto again = cache.get(cr, 0.05, 7);
  EXPECT_EQ(cache.build_count(), 3u);
  EXPECT_EQ(a, again);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(WorkloadCacheTest, PreparedWorkloadMatchesManualBuild) {
  const DatasetSpec cr = *find_dataset("CR");
  PreparedWorkload prepared(cr, 0.1, 42);

  const GcnWorkload manual = build_workload(cr, 0.1, 42);
  const CsrMatrix a_hat = normalize_adjacency(manual.adjacency);
  const DenseMatrix weights = DenseMatrix::random(
      manual.features.cols(), manual.spec.layer_dim, 42 + 7);

  EXPECT_EQ(prepared.workload().adjacency.nnz(), manual.adjacency.nnz());
  EXPECT_EQ(prepared.a_hat().nnz(), a_hat.nnz());
  ASSERT_EQ(prepared.weights().rows(), weights.rows());
  ASSERT_EQ(prepared.weights().cols(), weights.cols());
  for (NodeId r = 0; r < weights.rows(); ++r) {
    for (NodeId c = 0; c < weights.cols(); ++c) {
      EXPECT_EQ(prepared.weights().at(r, c), weights.at(r, c));
    }
  }
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.skipped_cycles, b.skipped_cycles);
  EXPECT_EQ(a.mac_ops, b.mac_ops);
  EXPECT_EQ(a.alu_busy_cycles, b.alu_busy_cycles);
  EXPECT_EQ(a.merge_adds, b.merge_adds);
  EXPECT_EQ(a.dmb_read_hits, b.dmb_read_hits);
  EXPECT_EQ(a.dmb_read_misses, b.dmb_read_misses);
  EXPECT_EQ(a.dmb_accumulate_hits, b.dmb_accumulate_hits);
  EXPECT_EQ(a.dmb_accumulate_misses, b.dmb_accumulate_misses);
  EXPECT_EQ(a.dmb_evictions, b.dmb_evictions);
  EXPECT_EQ(a.dmb_partial_spills, b.dmb_partial_spills);
  EXPECT_EQ(a.lsq_loads, b.lsq_loads);
  EXPECT_EQ(a.lsq_stores, b.lsq_stores);
  EXPECT_EQ(a.lsq_forwards, b.lsq_forwards);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.partial_bytes_peak, b.partial_bytes_peak);
}

// A reduced-scale grid shaped like perfbench's sweep-ac: DMB {128, 256}
// KB x tiling threshold {0.10, 0.20, 0.35} x three flows on AC.
SweepSpec dmb_threshold_grid() {
  SweepSpec spec;
  spec.datasets = {*find_dataset("AC")};
  spec.scale = 0.05;
  spec.seed = 42;
  spec.configs.clear();
  for (const std::size_t kb : {128, 256}) {
    for (const double threshold : {0.10, 0.20, 0.35}) {
      AcceleratorConfig config;
      config.dmb_bytes = kb * 1024;
      config.tiling_threshold = threshold;
      spec.configs.push_back(config);
    }
  }
  return spec;
}

// Every cell of a reusing sweep — deduped, restored or cold — must
// equal the same cell run on its own with no reuse, bit for bit.
TEST(SweepReuse, ReusedCellsMatchColdRuns) {
  const SweepSpec spec = dmb_threshold_grid();
  SweepOptions options;
  options.threads = 4;
  SweepRunner runner(options);
  const SweepRun run = runner.run(spec);
  const std::shared_ptr<const PreparedWorkload> prepared =
      runner.cache().get(spec.datasets.front(), *spec.scale, spec.seed);
  ASSERT_EQ(run.cells.size(), 18u);

  std::size_t deduped = 0;
  std::size_t built = 0;
  std::size_t restored = 0;
  for (const SweepCellResult& cell : run.cells) {
    SCOPED_TRACE(to_string(cell.cell.flow) + " cell " +
                 std::to_string(cell.cell.index));
    ExperimentRequest request;
    request.workload = &prepared->workload();
    request.a_hat = &prepared->a_hat();
    request.weights = &prepared->weights();
    request.reference = &prepared->reference();
    request.flow = cell.cell.flow;
    request.config = cell.cell.config;
    const ExperimentResult cold = run_experiment(request);
    const ExperimentResult& r = cell.result;
    expect_same_stats(r.stats, cold.stats);
    expect_same_stats(r.combination_stats, cold.combination_stats);
    expect_same_stats(r.aggregation_stats, cold.aggregation_stats);
    EXPECT_EQ(r.max_abs_err, cold.max_abs_err);
    EXPECT_EQ(r.verified, cold.verified);
    EXPECT_TRUE(r.verified);
    if (cell.reused_from) {
      ++deduped;
      EXPECT_LT(*cell.reused_from, cell.cell.index);
      EXPECT_EQ(r.sim_wall_ms, 0.0);
      continue;
    }
    built += r.checkpoint.built;
    restored += r.checkpoint.restored;
  }
  // RWP and OP at thresholds 0.20 and 0.35 repeat their 0.10 cell (2
  // DMB sizes x 2 flows x 2 thresholds). Per DMB size, the hybrid's
  // 0.10 cell builds the combination phase and 0.20 and 0.35 restore
  // it; RWP and OP each keep one simulated cell, which runs cold.
  EXPECT_EQ(deduped, 8u);
  EXPECT_EQ(built, 2u);
  EXPECT_EQ(restored, 4u);

  // The snapshots belong to one run(): the same runner simulates again.
  const SweepRun again = runner.run(spec);
  std::size_t leaders = 0;
  for (const SweepCellResult& cell : again.cells) {
    if (!cell.result.checkpoint.built || cell.reused_from) continue;
    ++leaders;
    EXPECT_GT(cell.result.sim_wall_ms, 0.0);
    EXPECT_FALSE(cell.result.checkpoint.restored);
  }
  EXPECT_EQ(leaders, 2u);

  // Observed cells reuse nothing.
  SweepOptions observed_options;
  observed_options.threads = 4;
  observed_options.observe = true;
  const SweepRun observed = SweepRunner(observed_options).run(spec);
  for (const SweepCellResult& cell : observed.cells) {
    EXPECT_FALSE(cell.reused_from.has_value());
    EXPECT_FALSE(cell.result.checkpoint.enabled);
    EXPECT_GT(cell.result.sim_wall_ms, 0.0);
  }
}

}  // namespace
}  // namespace hymm
