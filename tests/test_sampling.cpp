// Sampled-simulation mode (core/sampling.hpp): the seeded band
// selection is deterministic and well-formed, extrapolated counters
// keep the exact stall-bucket invariant, sampled cycle estimates stay
// within the documented relative-error bound of the exact run
// (docs/performance.md), and sampled results are labeled — never
// verified — all the way up through run_experiment and the sweep.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/check.hpp"
#include "core/accelerator.hpp"
#include "core/runner.hpp"
#include "core/sampling.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "sweep/sweep.hpp"
#include "sweep/workload_cache.hpp"

namespace hymm {
namespace {

// The documented per-(dataset, flow) relative cycle-error bound of
// sampled mode (docs/performance.md); the CI cross-check leg asserts
// the same bound on the full perf-gate workload.
constexpr double kRelErrorBound = 0.10;

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

// Big enough that sampling (with the floors lowered below) actually
// extrapolates instead of collapsing to a full simulation.
Problem make_problem(NodeId nodes = 600, EdgeCount edges = 9000,
                     NodeId features = 128, double density = 0.35,
                     std::uint64_t seed = 42) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = features;
  fspec.density = density;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(features, 16, seed + 2);
  return p;
}

// Floors lowered so this problem size genuinely samples (the defaults
// would run it exactly — the right behavior in production, but no
// test coverage of the estimator).
SampleOptions sampling_options(double fraction = 0.25,
                               std::uint64_t seed = 42) {
  SampleOptions options;
  options.fraction = fraction;
  options.seed = seed;
  options.min_nnz = 4096;
  options.min_band_nnz = 1024;
  return options;
}

LayerRunResult run_sampled(const Problem& p, Dataflow flow,
                           const SampleOptions& options) {
  LayerRunRequest request;
  request.flow = flow;
  request.a_hat = &p.a_hat;
  request.x = &p.x;
  request.w = &p.w;
  request.sample = options;
  return Accelerator(AcceleratorConfig{}).run_layer(request);
}

TEST(SelectSampleBands, DeterministicAndWellFormed) {
  const BandSelection a = select_sample_bands(1000, 16, 0.25, 7);
  const BandSelection b = select_sample_bands(1000, 16, 0.25, 7);
  EXPECT_EQ(a.bands_total, b.bands_total);
  EXPECT_EQ(a.selected, b.selected);

  EXPECT_EQ(a.bands_total, 16u);
  EXPECT_EQ(a.selected.size(), 4u);  // round(0.25 * 16)
  NodeId prev_end = 0;
  for (const auto& [begin, end] : a.selected) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end, 1000u);
    EXPECT_GE(begin, prev_end);  // ascending, disjoint
    prev_end = end;
  }
}

TEST(SelectSampleBands, StratifiedSelectionSpansTheExtent) {
  // One pick per contiguous stratum: with k = 4 of 16 bands, each
  // quarter of the extent contributes exactly one band.
  const BandSelection sel = select_sample_bands(1600, 16, 0.25, 123);
  ASSERT_EQ(sel.selected.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const NodeId stratum_begin = static_cast<NodeId>(s * 400);
    const NodeId stratum_end = static_cast<NodeId>((s + 1) * 400);
    EXPECT_GE(sel.selected[s].first, stratum_begin);
    EXPECT_LT(sel.selected[s].first, stratum_end);
  }
}

TEST(SelectSampleBands, FullFractionCoversEverything) {
  const BandSelection sel = select_sample_bands(1003, 16, 1.0, 9);
  EXPECT_EQ(sel.selected.size(), sel.bands_total);
  NodeId covered = 0;
  NodeId expected_begin = 0;
  for (const auto& [begin, end] : sel.selected) {
    EXPECT_EQ(begin, expected_begin);  // contiguous, in order
    covered += end - begin;
    expected_begin = end;
  }
  EXPECT_EQ(covered, 1003u);
}

TEST(SelectSampleBands, EdgeCases) {
  EXPECT_TRUE(select_sample_bands(0, 16, 0.5, 1).selected.empty());

  // Tiny fraction still simulates at least one band.
  const BandSelection tiny = select_sample_bands(1000, 16, 0.001, 1);
  EXPECT_EQ(tiny.selected.size(), 1u);

  // Extent smaller than the band target: one row per band.
  const BandSelection narrow = select_sample_bands(5, 16, 1.0, 1);
  EXPECT_EQ(narrow.bands_total, 5u);
  EXPECT_EQ(narrow.selected.size(), 5u);
}

// The headline guarantee, on the real workload it is documented for:
// the extrapolated cycle estimate lands within the documented bound
// of the exact simulation for every flow on full-scale Cora with
// production SampleOptions (docs/performance.md; the CI cross-check
// leg asserts the same bound on the full CR+CS perf workload).
TEST(SampledSimulation, CyclesWithinDocumentedBoundOfExactOnCora) {
  const PreparedWorkload prepared(*find_dataset("CR"), 1.0, 42);
  Accelerator exact{AcceleratorConfig{}};

  for (Dataflow flow : {Dataflow::kOuterProduct, Dataflow::kRowWiseProduct,
                        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    LayerRunRequest exact_request;
    exact_request.flow = flow;
    exact_request.a_hat = &prepared.a_hat();
    exact_request.x = &prepared.workload().features;
    exact_request.w = &prepared.weights();
    exact_request.sort = &prepared.sort();
    exact_request.sorted_features = &prepared.sorted_features();
    const LayerRunResult truth = exact.run_layer(exact_request);

    LayerRunRequest request;
    request.flow = flow;
    request.a_hat = &prepared.a_hat();
    request.x = &prepared.workload().features;
    request.w = &prepared.weights();
    request.sort = &prepared.sort();
    request.sorted_features = &prepared.sorted_features();
    // Production defaults: fraction 0.25, seed 42, adaptive floors on.
    request.sample = SampleOptions{};
    const LayerRunResult sampled = exact.run_layer(request);
    ASSERT_TRUE(sampled.sample.enabled);
    ASSERT_GT(sampled.stats.cycles, 0u);

    const double rel_err =
        std::abs(static_cast<double>(sampled.stats.cycles) -
                 static_cast<double>(truth.stats.cycles)) /
        static_cast<double>(truth.stats.cycles);
    EXPECT_LE(rel_err, kRelErrorBound)
        << "exact " << truth.stats.cycles << " sampled "
        << sampled.stats.cycles;
  }
}

class SampledFlows : public ::testing::TestWithParam<Dataflow> {};

// Extrapolation must preserve the simulator's accounting identity
// exactly: per phase and whole-layer, the stall buckets sum to the
// cycle count (scale_stats absorbs rounding residue).
TEST_P(SampledFlows, ExtrapolatedStatsKeepStallInvariant) {
  const Problem p = make_problem();
  const LayerRunResult r =
      run_sampled(p, GetParam(), sampling_options());
  EXPECT_EQ(r.combination_stats.stall_total(), r.combination_stats.cycles);
  EXPECT_EQ(r.aggregation_stats.stall_total(), r.aggregation_stats.cycles);
  EXPECT_EQ(r.stats.stall_total(), r.stats.cycles);
  EXPECT_EQ(r.stats.cycles,
            r.combination_stats.cycles + r.aggregation_stats.cycles);
}

// Fixed (request, config, seed) must reproduce bit-identically; a
// different seed draws different bands.
TEST_P(SampledFlows, DeterministicForFixedSeed) {
  const Problem p = make_problem();
  const LayerRunResult a =
      run_sampled(p, GetParam(), sampling_options(0.25, 7));
  const LayerRunResult b =
      run_sampled(p, GetParam(), sampling_options(0.25, 7));
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
  EXPECT_EQ(a.stats.dram_total_bytes(), b.stats.dram_total_bytes());
  EXPECT_DOUBLE_EQ(a.sample.cycles_estimate(), b.sample.cycles_estimate());
}

// Sampling bookkeeping: simulated band/nnz counts are labeled, the
// estimate is the phase sum, and partial coverage means the phases
// really were subsampled.
TEST_P(SampledFlows, EstimateAnnotationsAreConsistent) {
  const Problem p = make_problem();
  const LayerRunResult r =
      run_sampled(p, GetParam(), sampling_options());
  const SampleInfo& s = r.sample;
  ASSERT_TRUE(s.enabled);
  EXPECT_DOUBLE_EQ(s.fraction, 0.25);

  for (const PhaseSampleEstimate* phase : {&s.combination, &s.aggregation}) {
    EXPECT_LE(phase->bands_simulated, phase->bands_total);
    EXPECT_LE(phase->nnz_simulated, phase->nnz_total);
    EXPECT_GE(phase->cycles_estimate, 0.0);
    EXPECT_GE(phase->cycles_stderr, 0.0);
  }
  // The combination phase is large enough here that sampling must
  // actually have subsampled it.
  EXPECT_LT(s.combination.bands_simulated, s.combination.bands_total);
  EXPECT_LT(s.combination.nnz_simulated, s.combination.nnz_total);
  EXPECT_NEAR(s.cycles_estimate(),
              s.combination.cycles_estimate + s.aggregation.cycles_estimate,
              1e-9);
  EXPECT_DOUBLE_EQ(
      s.cycles_stderr(),
      std::hypot(s.combination.cycles_stderr, s.aggregation.cycles_stderr));
  if (s.cycles_estimate() > 0.0) {
    EXPECT_DOUBLE_EQ(s.rel_error_bound(),
                     2.0 * s.cycles_stderr() / s.cycles_estimate());
  }
}

// fraction = 1 simulates every band: full coverage, zero variance.
TEST_P(SampledFlows, FullFractionHasFullCoverageAndZeroStderr) {
  const Problem p = make_problem();
  const LayerRunResult r =
      run_sampled(p, GetParam(), sampling_options(1.0));
  const SampleInfo& s = r.sample;
  EXPECT_EQ(s.combination.bands_simulated, s.combination.bands_total);
  EXPECT_EQ(s.combination.nnz_simulated, s.combination.nnz_total);
  EXPECT_EQ(s.aggregation.bands_simulated, s.aggregation.bands_total);
  EXPECT_EQ(s.aggregation.nnz_simulated, s.aggregation.nnz_total);
  EXPECT_DOUBLE_EQ(s.combination.cycles_stderr, 0.0);
  EXPECT_DOUBLE_EQ(s.aggregation.cycles_stderr, 0.0);
}

// One phase of a pinned sampled estimate.
struct PinnedPhase {
  Cycle cycles = 0;
  std::array<Cycle, kStallCauseCount> stalls{};
  std::uint64_t dram_bytes = 0;
  std::uint64_t bands_simulated = 0;
};

struct PinnedEstimate {
  Dataflow flow = Dataflow::kRowWiseProduct;
  PinnedPhase combination;
  PinnedPhase aggregation;
};

void expect_phase_matches(const PhaseSampleEstimate& phase,
                          const PinnedPhase& pin) {
  EXPECT_EQ(phase.stats.cycles, pin.cycles);
  EXPECT_EQ(phase.stats.stall_cycles, pin.stalls);
  EXPECT_EQ(phase.stats.dram_total_bytes(), pin.dram_bytes);
  EXPECT_EQ(phase.bands_simulated, pin.bands_simulated);
}

// The extrapolated estimates of make_problem() under
// sampling_options(), pinned per phase. Four of 16 combination bands
// and four of 9 aggregation bands run (seven for HyMM's two
// aggregation stages), so these numbers exercise band selection, band
// simulation on the shared machine and the warm-start-corrected
// extrapolation together; any change to one of them shows here.
// Stall order: compute, merge_rmw, dram_latency, dram_bandwidth,
// lsq_full, smq_backlog, dmb_miss, accumulator_conflict, drain.
TEST_P(SampledFlows, MatchesPinnedEstimates) {
  static const PinnedEstimate kPinned[] = {
      {Dataflow::kOuterProduct,
       {71128, {26879, 26894, 1613, 3574, 0, 1629, 33, 0, 10506}, 4485814,
        4},
       {26002, {9600, 9610, 994, 842, 0, 1004, 20, 0, 3932}, 1641006, 4}},
      {Dataflow::kRowWiseProduct,
       {29112, {26878, 0, 592, 17, 0, 1579, 30, 0, 16}, 225498, 4},
       {12442, {9600, 0, 1802, 14, 0, 1004, 12, 0, 10}, 173989, 4}},
      {Dataflow::kHybrid,
       {29081, {26878, 0, 563, 17, 0, 1577, 30, 0, 16}, 225811, 4},
       {10982, {9601, 0, 392, 8, 0, 956, 17, 0, 8}, 153493, 7}},
  };
  const Problem p = make_problem();
  const LayerRunResult r =
      run_sampled(p, GetParam(), sampling_options());
  const PinnedEstimate* pin = nullptr;
  for (const PinnedEstimate& candidate : kPinned) {
    if (candidate.flow == GetParam()) pin = &candidate;
  }
  ASSERT_NE(pin, nullptr);
  {
    SCOPED_TRACE("combination");
    expect_phase_matches(r.sample.combination, pin->combination);
  }
  {
    SCOPED_TRACE("aggregation");
    expect_phase_matches(r.sample.aggregation, pin->aggregation);
  }
}

// The adaptive floors: a phase below min_nnz raises its effective
// fraction to full coverage (exact phase), whatever the request said.
TEST(SampledSimulation, SmallPhasesCollapseToExactSimulation) {
  const Problem p = make_problem(120, 900, 32, 0.2, 5);
  SampleOptions options;  // production defaults: min_nnz = 1 << 16
  options.fraction = 0.1;
  const LayerRunResult r =
      run_sampled(p, Dataflow::kRowWiseProduct, options);
  EXPECT_EQ(r.sample.combination.nnz_simulated,
            r.sample.combination.nnz_total);
  EXPECT_EQ(r.sample.aggregation.nnz_simulated,
            r.sample.aggregation.nnz_total);
}

TEST(SampledSimulation, RejectsOutOfRangeFraction) {
  const Problem p = make_problem(60, 300, 16, 0.3, 3);
  LayerRunRequest request;
  request.flow = Dataflow::kRowWiseProduct;
  request.a_hat = &p.a_hat;
  request.x = &p.x;
  request.w = &p.w;
  request.sample = SampleOptions{};
  const Accelerator accelerator{AcceleratorConfig{}};
  request.sample->fraction = 1.5;
  EXPECT_THROW(accelerator.run_layer(request), CheckError);
  request.sample->fraction = 0.0;
  EXPECT_THROW(accelerator.run_layer(request), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, SampledFlows,
                         ::testing::Values(Dataflow::kOuterProduct,
                                           Dataflow::kRowWiseProduct,
                                           Dataflow::kHybrid),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

// run_experiment in sampled mode: the result is labeled, never
// verified, and carries the extrapolated counters.
TEST(SampledExperiment, RunnerLabelsSampledResults) {
  const PreparedWorkload prepared(*find_dataset("CR"), 0.25, 42);
  ExperimentRequest request;
  request.workload = &prepared.workload();
  request.a_hat = &prepared.a_hat();
  request.weights = &prepared.weights();
  request.reference = &prepared.reference();
  request.flow = Dataflow::kRowWiseProduct;
  request.sample = 0.5;
  request.sample_seed = 11;

  const ExperimentResult r = run_experiment(request);
  EXPECT_TRUE(r.sample.enabled);
  EXPECT_DOUBLE_EQ(r.sample.fraction, 0.5);
  EXPECT_EQ(r.sample.seed, 11u);
  EXPECT_FALSE(r.verified);
  EXPECT_GT(r.stats.cycles, 0u);
  EXPECT_EQ(r.combination_stats.cycles + r.aggregation_stats.cycles,
            r.stats.cycles);
  EXPECT_EQ(r.stats.stall_total(), r.stats.cycles);
}

// The sweep applies the sampling knob to every cell, and sampled
// sweeps stay thread-count invariant like exact ones.
TEST(SampledSweep, ThreadCountDoesNotChangeSampledResults) {
  SweepSpec spec;
  spec.datasets = {*find_dataset("CR")};
  spec.scale = 0.25;
  spec.seed = 42;

  SweepOptions serial;
  serial.threads = 1;
  serial.sample = 0.5;
  const SweepRun base = SweepRunner(serial).run(spec);

  SweepOptions parallel;
  parallel.threads = 4;
  parallel.sample = 0.5;
  const SweepRun threaded = SweepRunner(parallel).run(spec);

  ASSERT_EQ(base.cells.size(), threaded.cells.size());
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const ExperimentResult& a = base.cells[i].result;
    const ExperimentResult& b = threaded.cells[i].result;
    SCOPED_TRACE(a.abbrev + "/" + to_string(a.flow));
    EXPECT_TRUE(a.sample.enabled);
    EXPECT_TRUE(b.sample.enabled);
    EXPECT_FALSE(a.verified);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
    EXPECT_EQ(a.stats.dram_total_bytes(), b.stats.dram_total_bytes());
  }
}

}  // namespace
}  // namespace hymm
