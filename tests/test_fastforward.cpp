// Event-driven fast-forward acceptance suite (docs/architecture.md).
//
// The tentpole guarantee: with cycle-skipping enabled the simulator
// produces *bit-identical* timing results — cycles, the full
// per-cause stall vector, and every DRAM byte counter — for every
// paper dataset under every dataflow. The suite locks that down at
// reduced dataset scales (the full-scale sweep runs in the bench
// harness), plus the accounting invariant and the paranoid check
// mode.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/layer_operands.hpp"
#include "core/runner.hpp"
#include "graph/datasets.hpp"
#include "linalg/gcn.hpp"

namespace hymm {
namespace {

// Restores the process-wide fast-forward mode on scope exit so test
// order cannot leak modes across suites.
class ModeGuard {
 public:
  ModeGuard() : saved_(fast_forward_mode()) {}
  ~ModeGuard() { set_fast_forward_mode(saved_); }

 private:
  FastForwardMode saved_;
};

// Reduced per-dataset scales: every paper topology is exercised, but
// each cell stays in unit-test territory (~500-600 nodes).
double test_scale(const DatasetSpec& spec) {
  if (spec.abbrev == "CR") return 0.2;
  if (spec.abbrev == "AP") return 0.08;
  if (spec.abbrev == "AC") return 0.04;
  if (spec.abbrev == "CS") return 0.03;
  if (spec.abbrev == "PH") return 0.016;
  if (spec.abbrev == "FR") return 0.006;
  return 0.0008;  // YP
}

struct TimingFingerprint {
  Cycle cycles = 0;
  Cycle combination_cycles = 0;
  Cycle aggregation_cycles = 0;
  std::array<Cycle, kStallCauseCount> stalls{};
  std::array<std::uint64_t, kTrafficClassCount> read_bytes{};
  std::array<std::uint64_t, kTrafficClassCount> write_bytes{};
  Cycle skipped = 0;
  bool verified = false;

  friend bool operator==(const TimingFingerprint& a,
                         const TimingFingerprint& b) {
    return a.cycles == b.cycles &&
           a.combination_cycles == b.combination_cycles &&
           a.aggregation_cycles == b.aggregation_cycles &&
           a.stalls == b.stalls && a.read_bytes == b.read_bytes &&
           a.write_bytes == b.write_bytes;
  }
};

TimingFingerprint fingerprint(const ExperimentResult& r) {
  TimingFingerprint f;
  f.cycles = r.stats.cycles;
  f.combination_cycles = r.combination_stats.cycles;
  f.aggregation_cycles = r.aggregation_stats.cycles;
  f.stalls = r.stats.stall_cycles;
  f.read_bytes = r.stats.dram_read_bytes;
  f.write_bytes = r.stats.dram_write_bytes;
  f.skipped = r.stats.skipped_cycles;
  f.verified = r.verified;
  return f;
}

// One workload per dataset, shared across flows and modes.
struct DatasetFixture {
  GcnWorkload workload;
  CsrMatrix a_hat;
  DenseMatrix weights;
  DenseMatrix reference;
};

DatasetFixture build_fixture(const DatasetSpec& spec) {
  DatasetFixture f;
  f.workload = build_workload(spec, test_scale(spec), /*seed=*/42);
  f.a_hat = normalize_adjacency(f.workload.adjacency);
  f.weights = DenseMatrix::random(f.workload.spec.feature_length,
                                  f.workload.spec.layer_dim, 49);
  f.reference =
      gcn_layer_reference(f.a_hat, f.workload.features, f.weights, false)
          .aggregation;
  return f;
}

TimingFingerprint run_cell(const DatasetFixture& f, Dataflow flow,
                           FastForwardMode mode) {
  set_fast_forward_mode(mode);
  ExperimentRequest request;
  request.workload = &f.workload;
  request.a_hat = &f.a_hat;
  request.weights = &f.weights;
  request.reference = &f.reference;
  request.flow = flow;
  request.config = AcceleratorConfig{};
  return fingerprint(run_experiment(request));
}

class FastForwardBitIdentity
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FastForwardBitIdentity, EveryFlowMatchesLegacyLoop) {
  ModeGuard guard;
  const DatasetSpec& spec = paper_datasets()[GetParam()];
  SCOPED_TRACE(spec.abbrev);
  const DatasetFixture fixture = build_fixture(spec);

  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const TimingFingerprint off =
        run_cell(fixture, flow, FastForwardMode::kOff);
    const TimingFingerprint on =
        run_cell(fixture, flow, FastForwardMode::kOn);

    // The tentpole contract: identical cycles, stall vector and DRAM
    // byte counters whether or not spans were skipped.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.combination_cycles, off.combination_cycles);
    EXPECT_EQ(on.aggregation_cycles, off.aggregation_cycles);
    for (std::size_t i = 0; i < kStallCauseCount; ++i) {
      EXPECT_EQ(on.stalls[i], off.stalls[i])
          << stall_cause_key(static_cast<StallCause>(i));
    }
    EXPECT_EQ(on.read_bytes, off.read_bytes);
    EXPECT_EQ(on.write_bytes, off.write_bytes);

    // Both modes still compute the exact GCN layer.
    EXPECT_TRUE(off.verified);
    EXPECT_TRUE(on.verified);

    // The legacy loop never fast-forwards; the diagnostic counter is
    // a subset of total cycles and stays inside the accounting
    // invariant (buckets already sum to cycles via run_phase's
    // DCHECK).
    EXPECT_EQ(off.skipped, 0u);
    EXPECT_LE(on.skipped, on.cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, FastForwardBitIdentity,
                         ::testing::Range<std::size_t>(
                             0, paper_datasets().size()),
                         [](const auto& info) {
                           return paper_datasets()[info.param].abbrev;
                         });

// The fast path must actually engage somewhere: across the paper
// datasets at least one cell skips a nonzero span (otherwise the
// tentpole is dead code and the wall-clock win is imaginary).
TEST(FastForward, SkipsCyclesSomewhereInTheSweep) {
  ModeGuard guard;
  Cycle total_skipped = 0;
  for (const DatasetSpec& spec : paper_datasets()) {
    const DatasetFixture fixture = build_fixture(spec);
    for (const Dataflow flow :
         {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
          Dataflow::kHybrid}) {
      total_skipped +=
          run_cell(fixture, flow, FastForwardMode::kOn).skipped;
    }
  }
  EXPECT_GT(total_skipped, 0u);
}

// Paranoid mode runs the legacy per-cycle loop while DCHECKing every
// cycle inside a predicted skip span; its stats must equal the
// legacy loop's exactly (and in debug builds a violated prediction
// aborts).
TEST(FastForward, CheckModeMatchesLegacyStats) {
  ModeGuard guard;
  const DatasetSpec& spec = paper_datasets().front();  // Cora
  const DatasetFixture fixture = build_fixture(spec);
  for (const Dataflow flow :
       {Dataflow::kRowWiseProduct, Dataflow::kOuterProduct,
        Dataflow::kHybrid}) {
    SCOPED_TRACE(to_string(flow));
    const TimingFingerprint off =
        run_cell(fixture, flow, FastForwardMode::kOff);
    const TimingFingerprint check =
        run_cell(fixture, flow, FastForwardMode::kCheck);
    EXPECT_TRUE(check == off);
    EXPECT_EQ(check.skipped, 0u);
  }
}

// Degree-sorted (hybrid preprocessing) inputs take the single-pass
// permutation path in CsrMatrix; the timing fingerprint must stay
// mode-independent there too.
TEST(FastForward, BitIdenticalOnDegreeSortedInput) {
  ModeGuard guard;
  const DatasetSpec& spec = paper_datasets().front();
  DatasetFixture fixture = build_fixture(spec);
  const LayerOperands operands(fixture.a_hat, fixture.workload.features);
  (void)operands.sort();  // sorted before either run

  const auto run_sorted = [&](FastForwardMode mode) {
    set_fast_forward_mode(mode);
    ExperimentRequest request;
    request.workload = &fixture.workload;
    request.a_hat = &fixture.a_hat;
    request.weights = &fixture.weights;
    request.reference = &fixture.reference;
    request.flow = Dataflow::kHybrid;
    request.config = AcceleratorConfig{};
    request.operands = &operands;
    return fingerprint(run_experiment(request));
  };
  const TimingFingerprint off = run_sorted(FastForwardMode::kOff);
  const TimingFingerprint on = run_sorted(FastForwardMode::kOn);
  EXPECT_TRUE(on == off);
  EXPECT_TRUE(off.verified && on.verified);
}

}  // namespace
}  // namespace hymm
