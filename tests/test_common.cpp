// Unit tests for src/common: RNG determinism and distributions,
// configuration validation, check macros and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace hymm {
namespace {

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    HYMM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassingExpressionDoesNotThrow) {
  EXPECT_NO_THROW(HYMM_CHECK(2 + 2 == 4));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), CheckError);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianHasZeroMeanUnitVariance) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Config, DefaultsMatchTableIII) {
  const AcceleratorConfig config;
  EXPECT_EQ(config.pe_count, 16u);
  EXPECT_EQ(config.dmb_bytes, 256u * 1024u);
  EXPECT_EQ(config.smq_pointer_bytes, 4u * 1024u);
  EXPECT_EQ(config.smq_index_bytes, 12u * 1024u);
  EXPECT_EQ(config.lsq_entries, 128u);
  EXPECT_EQ(config.lsq_entry_bytes, 68u);
  EXPECT_EQ(config.dram_bytes_per_cycle, 64u);  // 64 GB/s at 1 GHz
  EXPECT_DOUBLE_EQ(config.tiling_threshold, 0.20);
  EXPECT_DOUBLE_EQ(config.gflops(), 32.0);  // Section V
  EXPECT_EQ(config.dmb_lines(), 4096u);
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, ValidateRejectsBadParameters) {
  AcceleratorConfig c;
  c.pe_count = 0;
  EXPECT_THROW(c.validate(), CheckError);
  c = AcceleratorConfig{};
  c.dmb_bytes = 8;
  EXPECT_THROW(c.validate(), CheckError);
  c = AcceleratorConfig{};
  c.tiling_threshold = 1.5;
  EXPECT_THROW(c.validate(), CheckError);
  c = AcceleratorConfig{};
  c.dmb_pin_fraction = 0.0;
  EXPECT_THROW(c.validate(), CheckError);
}

TEST(Config, DataflowNames) {
  EXPECT_EQ(to_string(Dataflow::kRowWiseProduct), "RWP");
  EXPECT_EQ(to_string(Dataflow::kOuterProduct), "OP");
  EXPECT_EQ(to_string(Dataflow::kHybrid), "HyMM");
  EXPECT_EQ(to_string(EvictionPolicy::kLru), "LRU");
  EXPECT_EQ(to_string(EvictionPolicy::kFifo), "FIFO");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_percent(0.917, 1), "91.7%");
  EXPECT_EQ(Table::fmt_bytes(512), "512B");
  EXPECT_EQ(Table::fmt_bytes(256.0 * 1024), "256.00KB");
}

TEST(Types, LineGeometry) {
  EXPECT_EQ(kLineBytes, 64u);
  EXPECT_EQ(kLaneCount, 16u);
  EXPECT_EQ(kLineBytes, kLaneCount * sizeof(Value));
}

TEST(FlatMap, InsertFindEraseRoundTrip) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  map.emplace(42, 7);
  map.emplace(0, 1);  // key 0 is a valid key, not a sentinel
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(*map.find(0), 1);
  EXPECT_EQ(map.size(), 2u);
  map.emplace(42, 8);  // overwrite, not duplicate
  EXPECT_EQ(*map.find(42), 8);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_EQ(*map.find(0), 1);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint32_t> counts;
  ++counts[5];
  ++counts[5];
  ++counts[9];
  EXPECT_EQ(counts[5], 2u);
  EXPECT_EQ(counts[9], 1u);
  EXPECT_EQ(counts.size(), 2u);
}

// Mirror model check across growth and backward-shift deletion: the
// map must agree with std::map on a deterministic churn workload
// (including 64-byte-aligned "line address" keys that stress the
// low-bit-zero hashing case).
TEST(FlatMap, MatchesReferenceModelUnderChurn) {
  FlatMap<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> model;
  Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = (rng.next_below(512)) * 64;
    const auto op = rng.next_below(3);
    if (op == 0) {
      map.emplace(key, step);
      model[key] = static_cast<std::uint64_t>(step);
    } else if (op == 1) {
      EXPECT_EQ(map.erase(key), model.erase(key) > 0);
    } else {
      const std::uint64_t* found = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end());
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
  // Full-content sweep via for_each.
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t& value) {
    ++visited;
    const auto it = model.find(key);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, model.size());
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(64), nullptr);
}

}  // namespace
}  // namespace hymm
