// Spatial attribution acceptance suite (obs/spatial.hpp): the
// imbalance math and SpatialTracker unit behavior, plus the tentpole
// contracts — timing bit-identical with the tracker on or off, the
// three conservation invariants (PE busy, DRAM bytes, cycles) per
// dataflow, the hybrid region-nnz cross-check against the partition,
// and spatial counters bit-identical under every fast-forward mode
// and sweep thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/accelerator.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_sort.hpp"
#include "linalg/gcn.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/spatial.hpp"
#include "sweep/sweep.hpp"

namespace hymm {
namespace {

// --- Imbalance analytics unit math ---

TEST(Imbalance, EmptyVectorIsAllZero) {
  const ImbalanceStats s = compute_imbalance({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max_value, 0u);
  EXPECT_EQ(s.max_over_mean, 0.0);
  EXPECT_EQ(s.cov, 0.0);
  EXPECT_EQ(s.gini, 0.0);
}

TEST(Imbalance, AllZeroWorkHasNoImbalance) {
  const std::vector<std::uint64_t> v{0, 0, 0};
  const ImbalanceStats s = compute_imbalance(v);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max_value, 0u);
  EXPECT_EQ(s.max_over_mean, 0.0);
  EXPECT_EQ(s.cov, 0.0);
  EXPECT_EQ(s.gini, 0.0);
}

TEST(Imbalance, UniformWorkIsPerfectlyBalanced) {
  const std::vector<std::uint64_t> v{5, 5, 5, 5};
  const ImbalanceStats s = compute_imbalance(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.max_value, 5u);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(s.cov, 0.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
}

TEST(Imbalance, KnownSkewedVector) {
  // {1,2,3,4}: mean 2.5, max/mean 1.6, Gini 0.25, CoV sqrt(1.25)/2.5.
  const std::vector<std::uint64_t> v{4, 1, 3, 2};  // order must not matter
  const ImbalanceStats s = compute_imbalance(v);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_EQ(s.max_value, 4u);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.6);
  EXPECT_NEAR(s.cov, 0.4472135955, 1e-9);
  EXPECT_DOUBLE_EQ(s.gini, 0.25);
}

TEST(Imbalance, AllWorkOnOneUnit) {
  // {0,0,0,10}: max/mean 4, CoV sqrt(3), Gini (n-1)/n = 0.75.
  const std::vector<std::uint64_t> v{0, 0, 0, 10};
  const ImbalanceStats s = compute_imbalance(v);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 4.0);
  EXPECT_NEAR(s.cov, 1.7320508076, 1e-9);
  EXPECT_DOUBLE_EQ(s.gini, 0.75);
}

// --- SpatialTracker unit behavior ---

TEST(SpatialTrackerTest, DisabledTrackerStaysInert) {
  SpatialTracker t(/*enabled=*/false, /*tile_override=*/0);
  t.begin(100, 4);
  EXPECT_FALSE(t.active());
  t.account_cycles(10);
  EXPECT_TRUE(t.data().empty());
}

TEST(SpatialTrackerTest, ExplicitTileOverrideSizesTheGrid) {
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/10);
  t.begin(100, 4);
  ASSERT_TRUE(t.active());
  EXPECT_EQ(t.data().tile, 10u);
  EXPECT_EQ(t.data().grid_rows, 10u);
  EXPECT_EQ(t.data().grid_cols, 10u);
}

TEST(SpatialTrackerTest, AutoTileTargetsThirtyTwoTilesPerSide) {
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/0);
  t.begin(100, 4);
  // ceil(100/32) = 4-node tiles, ceil(100/4) = 25 tiles per side.
  EXPECT_EQ(t.data().tile, 4u);
  EXPECT_EQ(t.data().grid_rows, 25u);
}

TEST(SpatialTrackerTest, TinyTilesAreClampedToTheMaxGridSide) {
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/2);
  t.begin(100000, 4);
  EXPECT_LE(t.data().grid_rows, SpatialTracker::kMaxGridSide);
  EXPECT_GE(t.data().tile, 2u);
  // The raised tile still covers every node.
  EXPECT_GE(t.data().grid_rows * t.data().tile, 100000u);
}

TEST(SpatialTrackerTest, FocusAttributionAndResidualConservation) {
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/4);
  t.begin(8, 2);  // 2x2 grid

  // MAC at (0,0) focuses tile 0 of the OP region.
  t.on_mac(0, 0, SpatialRegion::kOp, /*first_chunk=*/true);
  t.account_cycles(3);
  t.on_dram_bytes(64);
  t.on_dmb_hit();

  // MAC at (5,5) moves the focus to tile (1,1) of the RWP region; the
  // second feature chunk is a MAC but not a new nonzero.
  t.on_mac(5, 5, SpatialRegion::kRwp, /*first_chunk=*/true);
  t.on_mac(5, 5, SpatialRegion::kRwp, /*first_chunk=*/false);
  t.account_cycles(2);
  t.on_dmb_miss();

  // Drain work lands in the residual once the focus clears.
  t.unfocus();
  t.account_cycles(7);
  t.on_dram_bytes(128);

  // PE ops: one 2-lane MAC, one 1-lane merge add.
  t.on_pe_op(2, /*is_mac=*/true);
  t.on_pe_op(1, /*is_mac=*/false);

  const SpatialData d = t.take();
  const SpatialTileCounters& op =
      d.regions[static_cast<std::size_t>(SpatialRegion::kOp)];
  const SpatialTileCounters& rwp =
      d.regions[static_cast<std::size_t>(SpatialRegion::kRwp)];
  ASSERT_FALSE(op.empty());
  ASSERT_FALSE(rwp.empty());
  EXPECT_EQ(op.nnz[0], 1u);
  EXPECT_EQ(op.cycles[0], 3u);
  EXPECT_EQ(op.dram_bytes[0], 64u);
  EXPECT_EQ(op.dmb_hits[0], 1u);
  EXPECT_EQ(rwp.nnz[3], 1u);
  EXPECT_EQ(rwp.macs[3], 2u);
  EXPECT_EQ(rwp.cycles[3], 2u);
  EXPECT_EQ(rwp.dmb_misses[3], 1u);
  EXPECT_EQ(d.residual_cycles, 7u);
  EXPECT_EQ(d.residual_dram_bytes, 128u);

  // Conservation: grid + residual equals everything charged.
  EXPECT_EQ(d.total_cycles(), 12u);
  EXPECT_EQ(d.total_dram_bytes(), 192u);
  EXPECT_EQ(d.grid_nnz(), 2u);
  EXPECT_EQ(d.grid_macs(), 3u);

  // Positional lane model: lane 0 busy for both ops, lane 1 for the
  // 2-lane MAC only; merge adds busy a lane without a MAC.
  EXPECT_EQ(d.array_busy_cycles, 2u);
  ASSERT_EQ(d.lane_busy_cycles.size(), 2u);
  EXPECT_EQ(d.lane_busy_cycles[0], 2u);
  EXPECT_EQ(d.lane_busy_cycles[1], 1u);
  EXPECT_EQ(d.lane_mac_ops[0], 1u);
  EXPECT_EQ(d.lane_mac_ops[1], 1u);

  // take() deactivated the tracker; further hooks are no-ops.
  EXPECT_FALSE(t.active());
  t.account_cycles(99);
  EXPECT_TRUE(t.data().empty());
}

// Lanes are counted per op width and derived when read: after every
// op, data(), and at the end take(), equal the per-op definition (an
// op on L lanes busies lanes [0, L), L clamped to the lane count).
TEST(SpatialTrackerTest, LaneCountsByWidthMatchThePerOpDefinition) {
  constexpr std::size_t kLanes = 16;
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/0);
  t.begin(8, kLanes);
  std::vector<std::uint64_t> busy(kLanes, 0);
  std::vector<std::uint64_t> macs(kLanes, 0);
  const std::size_t widths[] = {16, 4, 0, 1, 20, 7, 16, 4, 15};
  std::size_t ops = 0;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t lanes : widths) {
      const bool is_mac = ++ops % 3 != 0;
      t.on_pe_op(lanes, is_mac);
      for (std::size_t i = 0; i < std::min(lanes, kLanes); ++i) {
        ++busy[i];
        if (is_mac) ++macs[i];
      }
      EXPECT_EQ(t.data().lane_busy_cycles, busy) << "after op " << ops;
      EXPECT_EQ(t.data().lane_mac_ops, macs) << "after op " << ops;
    }
  }
  const SpatialData d = t.take();
  EXPECT_EQ(d.array_busy_cycles, ops);
  EXPECT_EQ(d.lane_busy_cycles, busy);
  EXPECT_EQ(d.lane_mac_ops, macs);
}

TEST(SpatialTrackerTest, RowBandCyclesSumAcrossRegionsAndColumns) {
  SpatialTracker t(/*enabled=*/true, /*tile_override=*/4);
  t.begin(8, 2);
  t.on_mac(0, 0, SpatialRegion::kOp, true);
  t.account_cycles(10);
  t.on_mac(0, 5, SpatialRegion::kRwp, true);  // row band 0, column 1
  t.account_cycles(5);
  t.on_mac(6, 2, SpatialRegion::kRwp, true);  // row band 1
  t.account_cycles(2);
  const std::vector<std::uint64_t> bands = t.take().row_band_cycles();
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0], 15u);
  EXPECT_EQ(bands[1], 2u);
}

// --- Simulation-level contracts ---

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

ExperimentResult run_with_spatial(const Fixture& f, Dataflow flow) {
  ObserverOptions options;
  options.spatial = true;
  Observer obs(options);
  obs.begin_run("spatial");
  return run_with_observer(f, flow, &obs);
}

// The tracker must not perturb timing: with spatial attribution on,
// cycles, stall accounting and DRAM traffic are bit-identical to a
// bare run, and a bare run carries no spatial data.
TEST(SpatialSim, TrackerNeverAffectsTiming) {
  const Fixture f = build_fixture(0.1);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const ExperimentResult bare = run_with_observer(f, flow, nullptr);
    const ExperimentResult sampled = run_with_spatial(f, flow);
    EXPECT_EQ(bare.stats.cycles, sampled.stats.cycles);
    EXPECT_EQ(bare.stats.stall_cycles, sampled.stats.stall_cycles);
    EXPECT_EQ(bare.stats.dram_total_bytes(),
              sampled.stats.dram_total_bytes());
    EXPECT_TRUE(bare.spatial.empty());
    ASSERT_FALSE(sampled.spatial.empty());
  }
}

// The three conservation invariants of the issue, per dataflow:
// per-PE busy cycles roll up to the aggregate PE-busy counter, the
// tile grid's DRAM bytes plus the residual equal the run's DRAM
// bytes, and tile cycles plus the residual equal the run cycles.
TEST(SpatialSim, CountersConserveRunTotals) {
  const Fixture f = build_fixture(0.1);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const ExperimentResult r = run_with_spatial(f, flow);
    ASSERT_FALSE(r.spatial.empty());

    // PE busy: the array-level counter matches SimStats exactly, and
    // the positional lane model stays within it (lane 0 engages on
    // every retired op).
    EXPECT_EQ(r.spatial.array_busy_cycles, r.stats.alu_busy_cycles);
    ASSERT_EQ(r.spatial.lane_busy_cycles.size(),
              AcceleratorConfig{}.pe_count);
    EXPECT_EQ(r.spatial.lane_busy_cycles[0], r.spatial.array_busy_cycles);
    for (const std::uint64_t lane : r.spatial.lane_busy_cycles) {
      EXPECT_LE(lane, r.spatial.array_busy_cycles);
    }

    // DRAM bytes and cycles: grid + residual == run totals.
    EXPECT_EQ(r.spatial.total_dram_bytes(), r.stats.dram_total_bytes());
    EXPECT_EQ(r.spatial.total_cycles(), r.stats.cycles);

    // The aggregation phase retires one MAC stream per adjacency
    // nonzero, so the grid's MAC count never exceeds the run's.
    EXPECT_GT(r.spatial.grid_macs(), 0u);
    EXPECT_LE(r.spatial.grid_macs(), r.stats.mac_ops);
  }
}

// Every aggregation nonzero lands in exactly one tile of exactly one
// region: pure flows cover the adjacency in their own region, and the
// hybrid's per-region nonzero counts reproduce the partition.
TEST(SpatialSim, RegionNnzMatchesThePartition) {
  const Fixture f = build_fixture(0.1);
  const EdgeCount nnz = f.a_hat.nnz();

  const ExperimentResult rwp =
      run_with_spatial(f, Dataflow::kRowWiseProduct);
  EXPECT_EQ(rwp.spatial.grid_nnz(), nnz);
  EXPECT_EQ(rwp.spatial.region_nnz(SpatialRegion::kRwp), nnz);

  const ExperimentResult op = run_with_spatial(f, Dataflow::kOuterProduct);
  EXPECT_EQ(op.spatial.grid_nnz(), nnz);
  EXPECT_EQ(op.spatial.region_nnz(SpatialRegion::kOp), nnz);

  const ExperimentResult hybrid = run_with_spatial(f, Dataflow::kHybrid);
  EXPECT_EQ(hybrid.spatial.grid_nnz(), nnz);
  EXPECT_EQ(hybrid.spatial.region_nnz(SpatialRegion::kOp),
            hybrid.partition.nnz_region1);
  EXPECT_EQ(hybrid.spatial.region_nnz(SpatialRegion::kRwp),
            hybrid.partition.nnz_region2);
  EXPECT_EQ(hybrid.spatial.region_nnz(SpatialRegion::kRegion3),
            hybrid.partition.nnz_region3);
}

// The tentpole bit-identity guarantee: the focus only moves at retire
// events, which fast-forward never skips, so the whole SpatialData —
// every tile counter, the residual and the lane vectors — compares
// equal field-for-field across fast-forward modes.
TEST(SpatialSim, SpatialBitIdenticalUnderFastForward) {
  ModeGuard guard;
  const Fixture f = build_fixture(0.1);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    std::vector<SpatialData> runs;
    for (const FastForwardMode mode :
         {FastForwardMode::kOff, FastForwardMode::kOn,
          FastForwardMode::kCheck}) {
      set_fast_forward_mode(mode);
      runs.push_back(run_with_spatial(f, flow).spatial);
    }
    ASSERT_FALSE(runs[0].empty());
    EXPECT_EQ(runs[0], runs[1]);  // off vs on
    EXPECT_EQ(runs[0], runs[2]);  // off vs check
  }
}

// Per-cell spatial data must be independent of the sweep thread
// count: each run has its own Observer-owned tracker, drained per
// cell.
TEST(SpatialSim, SweepSpatialIndependentOfThreadCount) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.1;
  spec.flows = {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
                Dataflow::kHybrid};

  const auto run_at = [&spec](unsigned threads) {
    SweepOptions options;
    options.threads = threads;
    options.observe = true;
    options.observer_options.spatial = true;
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
    ASSERT_FALSE(a.spatial.empty());
    EXPECT_EQ(a.spatial, b.spatial);
  }
}

// FNV-1a over 64-bit words.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A layer of dimension 20 splits every dense row into a 16-lane and a
// 4-lane chunk, so each nonzero makes one 16-lane op and one 4-lane op
// and every merge is 16 lanes wide. The per-op definition then fixes
// the lane vectors from SimStats: lanes 0-3 count every op, lanes 4-15
// every op but the 4-lane MACs. It must hold mid-run (each "PE busy"
// sample reads data()), through data() at the end and after take().
TEST(SpatialSim, Dimension20LaneCountsMatchThePerOpDefinition) {
  const Fixture f = build_fixture(0.1);
  const DenseMatrix w =
      DenseMatrix::random(f.workload.spec.feature_length, 20, 49);
  const Accelerator accelerator{AcceleratorConfig{}};
  // The "PE busy" track of each flow, as counted lane by lane per op
  // before lanes were counted by width: event count and FNV-1a digest
  // of every sample's (ts, lanes).
  const struct {
    Dataflow flow;
    std::size_t samples;
    std::uint64_t digest;
  } flows[] = {
      {Dataflow::kRowWiseProduct, 337, 2833113324837371139ULL},
      {Dataflow::kOuterProduct, 476, 16013837101939702503ULL},
      {Dataflow::kHybrid, 341, 8512665685352369040ULL}};
  for (const auto& [flow, pinned_samples, pinned_digest] : flows) {
    SCOPED_TRACE(to_string(flow));
    ObserverOptions options;
    options.trace = true;
    options.spatial = true;
    Observer obs(options);
    obs.begin_run(to_string(flow));
    const LayerRunResult r =
        accelerator.run_layer(flow, f.a_hat, f.workload.features, w, &obs);

    const std::uint64_t ops = r.stats.alu_busy_cycles;
    const std::uint64_t mac_ops = r.stats.mac_ops;
    ASSERT_EQ(mac_ops % 2, 0u);
    std::vector<std::uint64_t> busy(16, ops - mac_ops / 2);
    std::vector<std::uint64_t> macs(16, mac_ops / 2);
    std::fill_n(busy.begin(), 4, ops);
    std::fill_n(macs.begin(), 4, mac_ops);
    EXPECT_EQ(obs.spatial().data().lane_busy_cycles, busy);
    EXPECT_EQ(obs.spatial().data().lane_mac_ops, macs);

    std::ostringstream out;
    obs.trace().write(out);
    const auto doc = json_parse(out.str());
    ASSERT_TRUE(doc.has_value());
    std::size_t samples = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::vector<std::uint64_t> last(16, 0);
    for (const JsonValue& e : doc->find("traceEvents")->array_items) {
      if (e.get_string("name") != "PE busy") continue;
      ++samples;
      digest = fnv1a(digest, static_cast<std::uint64_t>(e.get_number("ts")));
      const auto& lanes = e.find("args")->object_members;
      ASSERT_EQ(lanes.size(), 16u);
      std::vector<std::uint64_t> now;
      for (const auto& [key, value] : lanes) {
        now.push_back(static_cast<std::uint64_t>(value.number_value));
        digest = fnv1a(digest, now.back());
      }
      for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(now[i], now[i < 4 ? 0 : 4]) << "lane " << i;
        EXPECT_GE(now[i], last[i]) << "lane " << i;
      }
      last = now;
    }
    EXPECT_EQ(last, busy);  // the phase-end sample
    EXPECT_EQ(samples, pinned_samples);
    EXPECT_EQ(digest, pinned_digest);

    const SpatialData d = obs.take_spatial();
    EXPECT_EQ(d.lane_busy_cycles, busy);
    EXPECT_EQ(d.lane_mac_ops, macs);
  }
}

// An explicit tile override reaches the tracker through
// ObserverOptions and reshapes the reported grid.
TEST(SpatialSim, TileOverrideControlsGridGeometry) {
  const Fixture f = build_fixture(0.1);
  ObserverOptions options;
  options.spatial = true;
  options.spatial_tile = 64;
  Observer obs(options);
  obs.begin_run("spatial");
  const ExperimentResult r =
      run_with_observer(f, Dataflow::kHybrid, &obs);
  ASSERT_FALSE(r.spatial.empty());
  EXPECT_EQ(r.spatial.tile, 64u);
  EXPECT_EQ(r.spatial.grid_rows,
            (r.spatial.nodes + 63) / 64);
}

}  // namespace
}  // namespace hymm
