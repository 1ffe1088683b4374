// Unit tests for src/common: RNG determinism and distributions,
// configuration validation, check macros, the table printer and the
// simulator's line-indexed table and ring FIFO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/line_map.hpp"
#include "common/rng.hpp"
#include "common/ring_queue.hpp"
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

TEST(Rng, NextBelowMatchesRejectionFormula) {
  // next_below(bound) must consume and return exactly what rejecting
  // draws below (2^64 mod bound) and reducing modulo bound does, for
  // tiny bounds, bounds near 2^64 (where rejection is frequent) and
  // everything between.
  Rng fast(2024);
  Rng reference(2024);
  Rng bounds(99);
  for (int i = 0; i < 1000000; ++i) {
    const int shift = static_cast<int>(bounds.next_below(64));
    const std::uint64_t bound =
        std::max<std::uint64_t>(bounds.next_u64() >> shift, 1);
    const std::uint64_t threshold = (0ULL - bound) % bound;
    std::uint64_t r = reference.next_u64();
    while (r < threshold) r = reference.next_u64();
    ASSERT_EQ(fast.next_below(bound), r % bound) << "draw " << i;
  }
  EXPECT_EQ(fast.next_u64(), reference.next_u64());
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

TEST(LineMap, FindEmplaceEraseAcrossPageBoundary) {
  LineMap<int> map;
  EXPECT_EQ(map.size(), 0u);
  // The last line of page 0 and the first line of page 1.
  const Addr last = (LineMap<int>::kPageLines - 1) * kLineBytes;
  const Addr first = LineMap<int>::kPageLines * kLineBytes;
  EXPECT_EQ(map.find(last), nullptr);
  EXPECT_EQ(map.find(first), nullptr);
  map.emplace(last, 7);
  map.emplace(first, 8);
  map.emplace(0, 1);  // line 0 is a valid key, not a sentinel
  ASSERT_NE(map.find(last), nullptr);
  EXPECT_EQ(*map.find(last), 7);
  EXPECT_EQ(*map.find(first), 8);
  EXPECT_EQ(*map.find(0), 1);
  EXPECT_EQ(map.size(), 3u);
  map.emplace(first, 9);  // overwrite, not duplicate
  EXPECT_EQ(*map.find(first), 9);
  EXPECT_EQ(map.size(), 3u);
  ++map[first + kLineBytes];  // counter idiom default-constructs
  EXPECT_EQ(map.at(first + kLineBytes), 1);
  EXPECT_TRUE(map.erase(last));
  EXPECT_FALSE(map.erase(last));
  EXPECT_FALSE(map.erase(100 * first));  // untouched page
  EXPECT_EQ(map.find(last), nullptr);
  EXPECT_EQ(*map.find(first), 9);
  EXPECT_EQ(map.size(), 3u);
}

// for_each against a std::map model under churn over several pages:
// every entry once, in ascending address order.
TEST(LineMap, ForEachVisitsEachEntryOnceInAddressOrder) {
  LineMap<std::uint64_t> map;
  std::map<Addr, std::uint64_t> model;
  Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const Addr line = rng.next_below(4 * LineMap<int>::kPageLines) * kLineBytes;
    if (rng.next_below(3) == 0) {
      EXPECT_EQ(map.erase(line), model.erase(line) > 0);
    } else {
      map.emplace(line, static_cast<std::uint64_t>(step));
      model[line] = static_cast<std::uint64_t>(step);
    }
    ASSERT_EQ(map.size(), model.size());
  }
  auto it = model.begin();
  std::size_t visited = 0;
  map.for_each([&](Addr line, std::uint64_t& value) {
    ++visited;
    ASSERT_NE(it, model.end());
    EXPECT_EQ(line, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  });
  EXPECT_EQ(visited, model.size());
}

TEST(LineMap, CopyIsIndependentAndClearEmpties) {
  LineMap<int> map;
  map.emplace(64, 1);
  map.emplace(5 * LineMap<int>::kPageLines * kLineBytes, 2);
  LineMap<int> copy = map;
  copy.emplace(64, 10);
  copy.erase(5 * LineMap<int>::kPageLines * kLineBytes);
  copy.emplace(128, 3);
  EXPECT_EQ(*map.find(64), 1);
  EXPECT_EQ(*map.find(5 * LineMap<int>::kPageLines * kLineBytes), 2);
  EXPECT_EQ(map.find(128), nullptr);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*copy.find(64), 10);
  EXPECT_EQ(copy.size(), 2u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(64), nullptr);
  int visited = 0;
  map.for_each([&](Addr, int&) { ++visited; });
  EXPECT_EQ(visited, 0);
  map.emplace(64, 4);  // usable after clear
  EXPECT_EQ(*map.find(64), 4);
  EXPECT_EQ(*copy.find(64), 10);
}

TEST(RingQueue, WrapsAround) {
  RingQueue<int> q;
  q.reserve(4);  // rounds up to the 16-slot minimum
  int next_in = 0;
  int next_out = 0;
  // Keep 10 elements in flight while 100 pass through: the head and
  // tail wrap the 16-slot ring several times.
  for (int step = 0; step < 100; ++step) {
    q.push_back(next_in++);
    if (q.size() > 10) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), 10u);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  q.push_back(7);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowthKeepsFifoOrder) {
  RingQueue<int> q;
  // Offset the head first so growth has to unwrap a split buffer.
  for (int i = 0; i < 10; ++i) q.push_back(-1);
  for (int i = 0; i < 10; ++i) q.pop_front();
  for (int i = 0; i < 1000; ++i) q.push_back(i);
  ASSERT_EQ(q.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, CopyIsIndependent) {
  RingQueue<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  RingQueue<int> copy = q;
  copy.pop_front();
  copy.push_back(99);
  for (int i = 5; i < 20; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
  for (int i = 6; i < 20; ++i) {
    ASSERT_EQ(copy.front(), i);
    copy.pop_front();
  }
  EXPECT_EQ(copy.front(), 99);
  EXPECT_EQ(copy.size(), 1u);
}

}  // namespace
}  // namespace hymm
