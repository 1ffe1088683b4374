// Functional + timing sanity tests for the cycle-level dataflow
// engines: every engine must compute exactly what the reference
// kernels compute, across random workloads, while its counters stay
// self-consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "core/hybrid_engine.hpp"
#include "core/op_engine.hpp"
#include "core/rwp_engine.hpp"
#include "graph/degree_sort.hpp"
#include "graph/generator.hpp"
#include "linalg/spdemm.hpp"

namespace hymm {
namespace {

struct Workbench {
  explicit Workbench(const AcceleratorConfig& cfg = AcceleratorConfig{})
      : ms(cfg) {}

  // Allocates the B (dense input) and C (output) regions for a given
  // sparse x dense product.
  void allocate(NodeId b_rows, NodeId c_rows) {
    b_region = ms.address_map().allocate("B", b_rows * kLineBytes,
                                         TrafficClass::kCombined);
    c_region = ms.address_map().allocate("C", c_rows * kLineBytes,
                                         TrafficClass::kOutput);
    spill_region = ms.address_map().allocate("spill", 1 << 24,
                                             TrafficClass::kPartial);
  }

  MemorySystem ms;
  AddressRegion b_region, c_region, spill_region;
};

CsrMatrix random_sparse(NodeId rows, NodeId cols, double density,
                        std::uint64_t seed) {
  FeatureSpec spec;
  spec.nodes = rows;
  spec.feature_length = cols;
  spec.density = density;
  spec.seed = seed;
  return generate_features(spec);
}

TEST(RwpEngine, ComputesReferenceProduct) {
  const CsrMatrix a = random_sparse(40, 32, 0.15, 1);
  const DenseMatrix b = DenseMatrix::random(32, 16, 2);
  DenseMatrix c = DenseMatrix::zeros(40, 16);

  Workbench wb;
  wb.allocate(32, 40);
  RwpEngineParams params;
  params.sparse = &a;
  params.b = &b;
  params.b_region = wb.b_region;
  params.c = &c;
  params.c_region = wb.c_region;
  RwpEngine engine(wb.ms, params);
  const Cycle cycles = run_phase(wb.ms, engine);

  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_row_wise(a, b)));
  EXPECT_GE(cycles, a.nnz());  // one MAC per cycle at best
  EXPECT_EQ(wb.ms.stats().mac_ops, a.nnz());
}

TEST(RwpEngine, WritesOneOutputLinePerNonEmptyRow) {
  const CsrMatrix a = random_sparse(30, 30, 0.1, 3);
  const DenseMatrix b = DenseMatrix::random(30, 16, 4);
  DenseMatrix c = DenseMatrix::zeros(30, 16);
  NodeId nonempty = 0;
  for (NodeId r = 0; r < a.rows(); ++r) {
    if (a.row_nnz(r) > 0) ++nonempty;
  }

  Workbench wb;
  wb.allocate(30, 30);
  RwpEngineParams params;
  params.sparse = &a;
  params.b = &b;
  params.b_region = wb.b_region;
  params.c = &c;
  params.c_region = wb.c_region;
  params.c_store_kind = StoreKind::kThrough;
  RwpEngine engine(wb.ms, params);
  run_phase(wb.ms, engine);

  EXPECT_EQ(wb.ms.stats().dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            static_cast<std::uint64_t>(nonempty) * kLineBytes);
}

TEST(RwpEngine, SmallBufferStillCorrectJustSlower) {
  const CsrMatrix a = random_sparse(60, 60, 0.2, 5);
  const DenseMatrix b = DenseMatrix::random(60, 16, 6);

  AcceleratorConfig big;
  AcceleratorConfig small = big;
  small.dmb_bytes = 4 * kLineBytes;

  Cycle cycles_big = 0, cycles_small = 0;
  for (auto* cfg : {&big, &small}) {
    DenseMatrix c = DenseMatrix::zeros(60, 16);
    Workbench wb(*cfg);
    wb.allocate(60, 60);
    RwpEngineParams params;
    params.sparse = &a;
    params.b = &b;
    params.b_region = wb.b_region;
    params.c = &c;
    params.c_region = wb.c_region;
    RwpEngine engine(wb.ms, params);
    const Cycle cycles = run_phase(wb.ms, engine);
    EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_row_wise(a, b)));
    (cfg == &big ? cycles_big : cycles_small) = cycles;
  }
  EXPECT_GT(cycles_small, cycles_big);
}

TEST(RwpEngine, WideDenseRowsSpanMultipleLines) {
  // 40-float rows = 3 lines per row: each non-zero costs three MACs
  // and three line loads.
  const CsrMatrix a = random_sparse(20, 20, 0.25, 7);
  const DenseMatrix b = DenseMatrix::random(20, 40, 8);
  DenseMatrix c = DenseMatrix::zeros(20, 40);
  Workbench wb;
  wb.allocate(20 * 3, 20 * 3);
  RwpEngineParams params;
  params.sparse = &a;
  params.b = &b;
  params.b_region = wb.b_region;
  params.c = &c;
  params.c_region = wb.c_region;
  RwpEngine engine(wb.ms, params);
  const Cycle cycles = run_phase(wb.ms, engine);
  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_row_wise(a, b)));
  EXPECT_GE(cycles, a.nnz() * 3);  // three chunk ops per non-zero
}

// (OpEngine wide-row coverage lives below, after op_params().)

OpEngineParams op_params(Workbench& wb, const CscMatrix& a,
                         const DenseMatrix& b, DenseMatrix& c) {
  OpEngineParams params;
  params.sparse = &a;
  params.b = &b;
  params.b_region = wb.b_region;
  params.c = &c;
  params.c_region = wb.c_region;
  params.spill_region = wb.spill_region;
  return params;
}

TEST(OpEngine, ComputesReferenceProductWithAccumulator) {
  const CsrMatrix a_csr = random_sparse(40, 32, 0.15, 11);
  const CscMatrix a = CscMatrix::from_csr(a_csr);
  const DenseMatrix b = DenseMatrix::random(32, 16, 12);
  DenseMatrix c = DenseMatrix::zeros(40, 16);

  Workbench wb;
  wb.allocate(32, 40);
  OpEngineParams params = op_params(wb, a, b, c);
  OpEngine engine(wb.ms, params);
  run_phase(wb.ms, engine);

  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_outer(a, b)));
  EXPECT_EQ(wb.ms.stats().mac_ops, a.nnz());
  // Every touched row flushed exactly once as output.
  EXPECT_EQ(wb.ms.stats().dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            static_cast<std::uint64_t>(engine.rows_touched()) * kLineBytes);
}

TEST(OpEngine, AppendModeCountsRecordsAndMergesAll) {
  const CsrMatrix a_csr = random_sparse(50, 40, 0.1, 13);
  const CscMatrix a = CscMatrix::from_csr(a_csr);
  const DenseMatrix b = DenseMatrix::random(40, 16, 14);
  DenseMatrix c = DenseMatrix::zeros(50, 16);

  Workbench wb;
  wb.allocate(40, 50);
  OpEngineParams params = op_params(wb, a, b, c);
  params.accumulate_in_buffer = false;
  OpEngine engine(wb.ms, params);
  run_phase(wb.ms, engine);

  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_outer(a, b)));
  // One 68-byte record per non-zero, all merged back.
  EXPECT_EQ(engine.spill_records_merged(), a.nnz());
  EXPECT_EQ(wb.ms.stats().partial_bytes_now, 0u);
  EXPECT_EQ(wb.ms.stats().partial_bytes_peak,
            static_cast<std::uint64_t>(a.nnz()) * 68u);
}

TEST(OpEngine, AccumulatorShrinksPartialFootprint) {
  const CsrMatrix a_csr = random_sparse(64, 64, 0.3, 15);
  const CscMatrix a = CscMatrix::from_csr(a_csr);
  const DenseMatrix b = DenseMatrix::random(64, 16, 16);

  std::uint64_t peak_with = 0, peak_without = 0;
  for (const bool with_acc : {true, false}) {
    DenseMatrix c = DenseMatrix::zeros(64, 16);
    Workbench wb;
    wb.allocate(64, 64);
    OpEngineParams params = op_params(wb, a, b, c);
    params.accumulate_in_buffer = with_acc;
    OpEngine engine(wb.ms, params);
    run_phase(wb.ms, engine);
    (with_acc ? peak_with : peak_without) =
        wb.ms.stats().partial_bytes_peak;
  }
  // Fig 10's mechanism: the accumulator bounds live partial state by
  // touched rows instead of by non-zero count.
  EXPECT_LT(peak_with, peak_without);
}

TEST(OpEngine, TinyBufferSpillsAndStaysCorrect) {
  AcceleratorConfig cfg;
  cfg.dmb_bytes = 8 * kLineBytes;  // far fewer lines than output rows
  const CsrMatrix a_csr = random_sparse(100, 80, 0.08, 17);
  const CscMatrix a = CscMatrix::from_csr(a_csr);
  const DenseMatrix b = DenseMatrix::random(80, 16, 18);
  DenseMatrix c = DenseMatrix::zeros(100, 16);

  Workbench wb(cfg);
  wb.allocate(80, 100);
  OpEngineParams params = op_params(wb, a, b, c);
  OpEngine engine(wb.ms, params);
  run_phase(wb.ms, engine);

  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_outer(a, b)));
  EXPECT_GT(wb.ms.stats().dmb_partial_spills, 0u);
  EXPECT_EQ(engine.spill_records_merged(),
            wb.ms.stats().dmb_partial_spills);
  EXPECT_EQ(wb.ms.stats().partial_bytes_now, 0u);
}

TEST(OpEngine, WideDenseRowsSpanMultipleLines) {
  const CsrMatrix a_csr = random_sparse(24, 18, 0.2, 21);
  const CscMatrix a = CscMatrix::from_csr(a_csr);
  const DenseMatrix b = DenseMatrix::random(18, 33, 22);  // 3 lines/row
  DenseMatrix c = DenseMatrix::zeros(24, 33);
  Workbench wb;
  wb.allocate(18 * 3, 24 * 3);
  OpEngineParams params = op_params(wb, a, b, c);
  OpEngine engine(wb.ms, params);
  run_phase(wb.ms, engine);
  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_outer(a, b)));

  // And append mode as well.
  DenseMatrix c2 = DenseMatrix::zeros(24, 33);
  Workbench wb2;
  wb2.allocate(18 * 3, 24 * 3);
  OpEngineParams params2 = op_params(wb2, a, b, c2);
  params2.accumulate_in_buffer = false;
  OpEngine engine2(wb2.ms, params2);
  run_phase(wb2.ms, engine2);
  EXPECT_TRUE(DenseMatrix::allclose(c2, spdemm_outer(a, b)));
  EXPECT_EQ(engine2.spill_records_merged(), a.nnz() * 3);
}

TEST(HybridAggregation, MatchesReferenceOnSortedGraph) {
  GraphSpec spec;
  spec.nodes = 200;
  spec.edges = 2400;
  spec.seed = 19;
  const CsrMatrix sorted = degree_sort(generate_power_law_graph(spec)).sorted;
  const AcceleratorConfig cfg;
  const RegionPartition partition = partition_regions(sorted, cfg);
  const TiledAdjacency tiled = TiledAdjacency::build(sorted, partition);
  const DenseMatrix b = DenseMatrix::random(200, 16, 20);
  DenseMatrix c = DenseMatrix::zeros(200, 16);

  Workbench wb(cfg);
  wb.allocate(200, 200);
  HybridAggregationParams params;
  params.tiled = &tiled;
  params.b = &b;
  params.b_region = wb.b_region;
  params.c = &c;
  params.c_region = wb.c_region;
  const HybridAggregationInfo info = run_hybrid_aggregation(wb.ms, params);

  EXPECT_TRUE(DenseMatrix::allclose(c, spdemm_row_wise(sorted, b)));
  EXPECT_EQ(info.pinned_rows, partition.region1_rows);
  EXPECT_GT(info.op_phase_cycles, 0u);
  EXPECT_GT(info.rwp_phase_cycles, 0u);
  // Pinned region-1 rows never spill.
  EXPECT_EQ(wb.ms.stats().dmb_partial_spills, 0u);
  EXPECT_EQ(wb.ms.stats().partial_bytes_now, 0u);
  // Region-1 partials all merged on-chip.
  EXPECT_GT(wb.ms.stats().dmb_accumulate_hits, 0u);
  // Per-phase deltas partition the totals.
  EXPECT_EQ(info.op_phase_stats.cycles, info.op_phase_cycles);
  EXPECT_EQ(info.rwp_phase_stats.cycles, info.rwp_phase_cycles);
  EXPECT_EQ(info.op_phase_stats.mac_ops + info.rwp_phase_stats.mac_ops,
            wb.ms.stats().mac_ops);
  EXPECT_EQ(info.op_phase_stats.mac_ops, partition.nnz_region1);
  EXPECT_EQ(info.rwp_phase_stats.mac_ops,
            partition.nnz_region2 + partition.nnz_region3);
}

// Property sweep: all three aggregation paths agree with the
// reference across graph shapes and buffer sizes.
//
// gtest prints this struct as its raw bytes, and gtest_discover_tests
// builds each CTest name from that print. `name_word` fills what would
// otherwise be uninitialised padding after `nodes`, so every byte is
// set and the names are the same on every build. Its values keep the
// names the cases have always been listed under; the test ignores it.
struct EngineSweepParam {
  NodeId nodes;
  std::uint32_t name_word;
  EdgeCount edges;
  std::size_t dmb_lines;
};
static_assert(sizeof(EngineSweepParam) == 24,
              "EngineSweepParam must have no padding bytes");

class EngineSweep : public ::testing::TestWithParam<EngineSweepParam> {};

TEST_P(EngineSweep, AllEnginesMatchReference) {
  const auto p = GetParam();
  GraphSpec spec;
  spec.nodes = p.nodes;
  spec.edges = p.edges;
  spec.seed = p.nodes + p.edges;
  const CsrMatrix a = generate_power_law_graph(spec);
  const DenseMatrix b = DenseMatrix::random(p.nodes, 16, 99);
  const DenseMatrix expected = spdemm_row_wise(a, b);

  AcceleratorConfig cfg;
  cfg.dmb_bytes = p.dmb_lines * kLineBytes;

  {  // RWP
    DenseMatrix c = DenseMatrix::zeros(p.nodes, 16);
    Workbench wb(cfg);
    wb.allocate(p.nodes, p.nodes);
    RwpEngineParams params;
    params.sparse = &a;
    params.b = &b;
    params.b_region = wb.b_region;
    params.c = &c;
    params.c_region = wb.c_region;
    RwpEngine engine(wb.ms, params);
    run_phase(wb.ms, engine);
    EXPECT_TRUE(DenseMatrix::allclose(c, expected)) << "RWP mismatch";
  }
  {  // OP
    const CscMatrix a_csc = CscMatrix::from_csr(a);
    DenseMatrix c = DenseMatrix::zeros(p.nodes, 16);
    Workbench wb(cfg);
    wb.allocate(p.nodes, p.nodes);
    OpEngineParams params = op_params(wb, a_csc, b, c);
    OpEngine engine(wb.ms, params);
    run_phase(wb.ms, engine);
    EXPECT_TRUE(DenseMatrix::allclose(c, expected)) << "OP mismatch";
  }
  {  // Hybrid (on the sorted graph; compare in sorted space)
    const DegreeSortResult sort = degree_sort(a);
    const RegionPartition partition = partition_regions(sort.sorted, cfg);
    const TiledAdjacency tiled = TiledAdjacency::build(sort.sorted, partition);
    // Permute B rows to sorted order.
    DenseMatrix b_sorted(p.nodes, 16);
    for (NodeId old_id = 0; old_id < p.nodes; ++old_id) {
      for (NodeId d = 0; d < 16; ++d) {
        b_sorted.at(sort.perm[old_id], d) = b.at(old_id, d);
      }
    }
    DenseMatrix c = DenseMatrix::zeros(p.nodes, 16);
    Workbench wb(cfg);
    wb.allocate(p.nodes, p.nodes);
    HybridAggregationParams params;
    params.tiled = &tiled;
    params.b = &b_sorted;
    params.b_region = wb.b_region;
    params.c = &c;
    params.c_region = wb.c_region;
    run_hybrid_aggregation(wb.ms, params);
    EXPECT_TRUE(
        DenseMatrix::allclose(c, spdemm_row_wise(sort.sorted, b_sorted)))
        << "Hybrid mismatch";
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndBuffers, EngineSweep,
    ::testing::Values(EngineSweepParam{16, 0, 40, 4096},
                      EngineSweepParam{100, 0xEFD00000u, 800, 4096},
                      EngineSweepParam{100, 0, 800, 16},
                      EngineSweepParam{300, 0, 4000, 64},
                      EngineSweepParam{500, 0x00091E03u, 3000, 4096},
                      EngineSweepParam{500, 0xCAC50000u, 12000, 128}));

}  // namespace
}  // namespace hymm
