// Tests for the Sparse Matrix Queue: stream order for CSR and CSC,
// outer-unit delimiters, refill gating and traffic accounting.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "graph/generator.hpp"
#include "sim/smq.hpp"
#include "sim/smq_entry.hpp"

namespace hymm {
namespace {

struct Fixture {
  Fixture() {
    config.dram_latency = 5;
    dram = std::make_unique<Dram>(config, stats);
    smq = std::make_unique<SparseMatrixQueue>(config, *dram);
  }

  // Runs the stream to completion, returning all entries in pop order.
  std::vector<SmqEntry> drain(Cycle limit = 1'000'000) {
    std::vector<SmqEntry> entries;
    for (Cycle t = 0; t < limit && !smq->finished(); ++t) {
      dram->tick(t);
      smq->tick(t);
      while (smq->has_ready()) {
        entries.push_back(smq->front());
        smq->pop();
      }
    }
    EXPECT_TRUE(smq->finished());
    return entries;
  }

  AcceleratorConfig config;
  SimStats stats;
  std::unique_ptr<Dram> dram;
  std::unique_ptr<SparseMatrixQueue> smq;
};

CsrMatrix small_matrix() {
  CooMatrix coo(4, 4);
  coo.add(0, 1, 1.0f);
  coo.add(0, 3, 2.0f);
  coo.add(2, 0, 3.0f);
  coo.add(2, 2, 4.0f);
  coo.add(2, 3, 5.0f);
  coo.add(3, 3, 6.0f);
  return CsrMatrix::from_coo(std::move(coo));
}

TEST(Smq, CsrStreamOrderAndFlags) {
  Fixture f;
  const CsrMatrix m = small_matrix();
  f.smq->attach_csr(m, TrafficClass::kAdjacency);
  const auto entries = f.drain();
  ASSERT_EQ(entries.size(), m.nnz());
  // Row-major order with (first, last) delimiters.
  EXPECT_EQ(entries[0].outer, 0u);
  EXPECT_EQ(entries[0].inner, 1u);
  EXPECT_TRUE(entries[0].first_of_outer);
  EXPECT_FALSE(entries[0].last_of_outer);
  EXPECT_EQ(entries[1].inner, 3u);
  EXPECT_TRUE(entries[1].last_of_outer);
  EXPECT_EQ(entries[2].outer, 2u);  // empty row 1 skipped
  EXPECT_TRUE(entries[2].first_of_outer);
  EXPECT_FLOAT_EQ(entries[4].value, 5.0f);
  EXPECT_TRUE(entries[4].last_of_outer);
  EXPECT_TRUE(entries[5].first_of_outer);
  EXPECT_TRUE(entries[5].last_of_outer);
}

TEST(Smq, CscStreamWalksColumns) {
  Fixture f;
  const CscMatrix m = CscMatrix::from_csr(small_matrix());
  f.smq->attach_csc(m, TrafficClass::kAdjacency);
  const auto entries = f.drain();
  ASSERT_EQ(entries.size(), m.nnz());
  // Column 0 holds row 2 only.
  EXPECT_EQ(entries[0].outer, 0u);
  EXPECT_EQ(entries[0].inner, 2u);
  EXPECT_TRUE(entries[0].first_of_outer);
  EXPECT_TRUE(entries[0].last_of_outer);
  // Column 3 holds rows 0, 2, 3.
  const auto& last = entries.back();
  EXPECT_EQ(last.outer, 3u);
  EXPECT_EQ(last.inner, 3u);
  EXPECT_TRUE(last.last_of_outer);
}

TEST(Smq, RefillTrafficAccountedPerClass) {
  Fixture f;
  const CsrMatrix m = small_matrix();
  f.smq->attach_csr(m, TrafficClass::kFeatures);
  f.drain();
  const auto bytes = f.stats.dram_read_bytes[static_cast<std::size_t>(
      TrafficClass::kFeatures)];
  // 6 entries -> one index/value line, plus at least one pointer line.
  EXPECT_GE(bytes, 2 * kLineBytes);
  EXPECT_LE(bytes, 4 * kLineBytes);
}

TEST(Smq, EntriesGatedByDramLatency) {
  Fixture f;
  const CsrMatrix m = small_matrix();
  f.smq->attach_csr(m, TrafficClass::kAdjacency);
  // Nothing can be ready before the first refill returns.
  for (Cycle t = 0; t < f.config.dram_latency; ++t) {
    f.dram->tick(t);
    f.smq->tick(t);
    EXPECT_FALSE(f.smq->has_ready());
  }
}

TEST(Smq, LargeStreamDeliversEveryEntryOnce) {
  Fixture f;
  GraphSpec spec;
  spec.nodes = 300;
  spec.edges = 5000;
  spec.seed = 3;
  const CsrMatrix m = generate_power_law_graph(spec);
  f.smq->attach_csr(m, TrafficClass::kAdjacency);
  const auto entries = f.drain();
  ASSERT_EQ(entries.size(), m.nnz());
  // Re-derive the matrix from the stream and compare.
  CooMatrix coo(m.rows(), m.cols());
  for (const SmqEntry& e : entries) coo.add(e.outer, e.inner, e.value);
  EXPECT_EQ(CsrMatrix::from_coo(std::move(coo)), m);
}

TEST(Smq, PrefetchDepthBoundedByIndexBuffer) {
  Fixture f;
  GraphSpec spec;
  spec.nodes = 400;
  spec.edges = 30000;
  spec.seed = 4;
  const CsrMatrix m = generate_power_law_graph(spec);
  f.smq->attach_csr(m, TrafficClass::kAdjacency);
  const std::size_t capacity = f.config.smq_index_bytes / 8;
  // Without consuming anything, the ready queue must not exceed the
  // index-buffer capacity.
  for (Cycle t = 0; t < 5000; ++t) {
    f.dram->tick(t);
    f.smq->tick(t);
  }
  std::size_t ready = 0;
  while (f.smq->has_ready()) {
    f.smq->pop();
    ++ready;
  }
  EXPECT_LE(ready, capacity);
  EXPECT_GE(ready, capacity / 2);  // prefetcher actually ran ahead
}

TEST(Smq, AttachWhileActiveThrows) {
  Fixture f;
  const CsrMatrix m = small_matrix();
  f.smq->attach_csr(m, TrafficClass::kAdjacency);
  EXPECT_THROW(f.smq->attach_csr(m, TrafficClass::kAdjacency), CheckError);
}

TEST(SmqEntryFormat, PackUnpackRoundTrip) {
  for (const SmqFormat format : {SmqFormat::kCsr, SmqFormat::kCsc}) {
    for (const NodeId pointer : {NodeId{0}, NodeId{716846}, kMaxSmqPointer}) {
      for (const Value value : {0.0f, -3.25f, 1e-20f, 1e20f}) {
        SmqEntryFields fields;
        fields.format = format;
        fields.pointer = pointer;
        fields.index = 0xDEADBEEF;
        fields.value = value;
        EXPECT_EQ(unpack_smq_entry(pack_smq_entry(fields)), fields);
      }
    }
  }
}

TEST(SmqEntryFormat, FlagOccupiesTopBit) {
  SmqEntryFields csc;
  csc.format = SmqFormat::kCsc;
  csc.pointer = 5;
  EXPECT_EQ(pack_smq_entry(csc).flag_and_pointer, 0x80000005u);
  SmqEntryFields csr = csc;
  csr.format = SmqFormat::kCsr;
  EXPECT_EQ(pack_smq_entry(csr).flag_and_pointer, 0x00000005u);
}

TEST(SmqEntryFormat, PointerOverflowRejected) {
  SmqEntryFields fields;
  fields.pointer = kMaxSmqPointer + 1;
  EXPECT_THROW(pack_smq_entry(fields), CheckError);
}

TEST(SmqEntryFormat, PackedSizeMatchesStorageAccounting) {
  // 12 bytes per entry = 4 (flag+pointer) + 4 (index) + 4 (value);
  // the SMQ's index/value stream accounting (8 B/nnz) plus the
  // pointer stream (4 B/outer unit) corresponds to this layout.
  EXPECT_EQ(kPackedSmqEntryBytes, 12u);
  EXPECT_EQ(sizeof(PackedSmqEntry), 12u);
}

TEST(Smq, EmptyMatrixFinishesImmediately) {
  Fixture f;
  const CsrMatrix empty = CsrMatrix::from_coo(CooMatrix(5, 5));
  f.smq->attach_csr(empty, TrafficClass::kAdjacency);
  EXPECT_TRUE(f.smq->finished());
  // And a new stream can attach right away.
  const CsrMatrix m = small_matrix();
  EXPECT_NO_THROW(f.smq->attach_csr(m, TrafficClass::kAdjacency));
}

}  // namespace
}  // namespace hymm
