// Tests for the Load/Store Queue: capacity, store-to-load
// forwarding, store draining, miss latency hiding and the retry
// semantics of loads the DMB rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "obs/observer.hpp"
#include "sim/lsq.hpp"

namespace hymm {
namespace {

struct Fixture {
  explicit Fixture(std::size_t entries = 8, bool forwarding = true,
                   std::size_t mshrs = 16) {
    config.lsq_entries = entries;
    config.dmb_mshr_entries = mshrs;
    config.lsq_store_to_load_forwarding = forwarding;
    config.dram_latency = 10;
    config.dmb_hit_latency = 2;
    config.dmb_bytes = 16 * kLineBytes;
    dram = std::make_unique<Dram>(config, stats);
    dmb = std::make_unique<DenseMatrixBuffer>(config, *dram, stats);
    lsq = std::make_unique<LoadStoreQueue>(config, *dmb, stats);
  }

  void step(Cycle t) {
    dram->tick(t);
    dmb->tick(t);
    lsq->tick(t);
  }

  Cycle run_until_ready(LoadStoreQueue::EntryId id, Cycle from,
                        Cycle limit = 100) {
    for (Cycle t = from; t < from + limit; ++t) {
      step(t);
      if (lsq->is_ready(id)) return t;
    }
    ADD_FAILURE() << "load " << id << " never ready";
    return 0;
  }

  AcceleratorConfig config;
  SimStats stats;
  std::unique_ptr<Dram> dram;
  std::unique_ptr<DenseMatrixBuffer> dmb;
  std::unique_ptr<LoadStoreQueue> lsq;
};

constexpr Addr L(std::uint64_t i) { return 0x1000 + i * kLineBytes; }

TEST(Lsq, LoadMissCompletesThroughDmb) {
  Fixture f;
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(f.lsq->is_ready(*id));
  const Cycle done = f.run_until_ready(*id, 0);
  EXPECT_GE(done, f.config.dram_latency);
  f.lsq->release_load(*id);
  EXPECT_EQ(f.lsq->pending_loads(), 0u);
}

TEST(Lsq, CapacitySharedBetweenLoadsAndStores) {
  Fixture f(/*entries=*/4);
  EXPECT_TRUE(f.lsq->store(L(0), TrafficClass::kOutput,
                           StoreKind::kThrough, 0));
  EXPECT_TRUE(f.lsq->store(L(1), TrafficClass::kOutput,
                           StoreKind::kThrough, 0));
  auto a = f.lsq->load(L(2), TrafficClass::kCombined, 0);
  auto b = f.lsq->load(L(3), TrafficClass::kCombined, 0);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(f.lsq->free_entries(), 0u);
  EXPECT_FALSE(f.lsq->load(L(4), TrafficClass::kCombined, 0).has_value());
  EXPECT_FALSE(f.lsq->store(L(5), TrafficClass::kOutput,
                            StoreKind::kThrough, 0));
}

TEST(Lsq, StoreToLoadForwardingIsImmediate) {
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(f.lsq->is_ready(*id));  // no memory round trip
  EXPECT_EQ(f.stats.lsq_forwards, 1u);
  f.lsq->release_load(*id);
}

TEST(Lsq, ForwardingDisabledGoesToMemory) {
  Fixture f(/*entries=*/8, /*forwarding=*/false);
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(f.lsq->is_ready(*id));
  EXPECT_EQ(f.stats.lsq_forwards, 0u);
  // Store drains first tick and allocates the line, so the load hits.
  f.run_until_ready(*id, 0);
}

TEST(Lsq, ForwardingPersistsAfterDrainUntilReplaced) {
  // Section IV-B forwards from any matching LSQ entry; draining the
  // store does not invalidate it (output addresses are write-once).
  Fixture f(/*entries=*/4);
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  f.step(0);  // store drains into the DMB
  EXPECT_TRUE(f.lsq->all_stores_drained());
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(f.stats.lsq_forwards, 1u);
  EXPECT_TRUE(f.lsq->is_ready(*id));
  f.lsq->release_load(*id);

  // Four newer stores push L(0) out of the 4-entry forward window.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(f.lsq->store(L(i), TrafficClass::kOutput,
                             StoreKind::kThrough, 2));
    f.step(1 + i);
  }
  const auto later = f.lsq->load(L(0), TrafficClass::kCombined, 10);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(f.stats.lsq_forwards, 1u);  // no longer forwardable
  // But the DMB still holds the line, so it is a fast hit.
  const Cycle done = f.run_until_ready(*later, 10);
  EXPECT_LE(done, 10 + f.config.dmb_hit_latency + 1);
}

TEST(Lsq, StoresDrainOnePerCycle) {
  Fixture f;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.lsq->store(L(i), TrafficClass::kOutput,
                             StoreKind::kThrough, 0));
  }
  f.step(0);
  EXPECT_FALSE(f.lsq->all_stores_drained());
  f.step(1);
  f.step(2);
  EXPECT_TRUE(f.lsq->all_stores_drained());
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            3 * kLineBytes);
}

TEST(Lsq, YoungerLoadsOvertakeMissedLoads) {
  // Section IV-B: "While a missed load instruction waits ... subsequent
  // load instructions targeting addresses already present in the LSQ
  // can continue execution."
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(1), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto slow = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto fast = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  ASSERT_TRUE(slow.has_value() && fast.has_value());
  EXPECT_TRUE(f.lsq->is_ready(*fast));   // forwarded immediately
  EXPECT_FALSE(f.lsq->is_ready(*slow));  // still in flight
}

TEST(Lsq, AccumulateStoreReachesAccumulator) {
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kPartial,
                           StoreKind::kAccumulate, 0));
  f.step(0);
  EXPECT_EQ(f.stats.dmb_accumulate_misses, 1u);  // allocated fresh
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kPartial,
                           StoreKind::kAccumulate, 1));
  f.step(1);
  EXPECT_EQ(f.stats.dmb_accumulate_hits, 1u);
}

TEST(Lsq, ReleaseUnknownOrUnreadyThrows) {
  Fixture f;
  EXPECT_THROW(f.lsq->release_load(999), CheckError);
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW(f.lsq->release_load(*id), CheckError);  // not ready yet
}

// Entry ids are slot indices: a released slot is handed out again,
// and a second release of the same id is caught.
TEST(Lsq, ReleasedSlotIsReusedAndDoubleReleaseThrows) {
  Fixture f(/*entries=*/4);
  // Forwarded loads are born ready, so slots cycle without ticking.
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto b = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(f.lsq->pending_loads(), 2u);
  EXPECT_EQ(f.lsq->free_entries(), 1u);  // 4 - 2 loads - 1 store

  f.lsq->release_load(*a);
  EXPECT_EQ(f.lsq->pending_loads(), 1u);
  EXPECT_EQ(f.lsq->free_entries(), 2u);
  EXPECT_THROW(f.lsq->release_load(*a), CheckError);
  EXPECT_EQ(f.lsq->pending_loads(), 1u);

  const auto c = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);  // the freed slot
  EXPECT_TRUE(f.lsq->is_ready(*b));
  EXPECT_TRUE(f.lsq->is_ready(*c));
  EXPECT_EQ(f.lsq->pending_loads(), 2u);
  f.lsq->release_load(*b);
  f.lsq->release_load(*c);
  EXPECT_EQ(f.lsq->pending_loads(), 0u);
  EXPECT_EQ(f.lsq->free_entries(), 3u);
  f.step(0);  // the store drains
  EXPECT_EQ(f.lsq->free_entries(), 4u);
}

// A slot reused after a miss completes serves the next miss through
// the DMB like a fresh one.
TEST(Lsq, ReusedSlotCompletesAnotherMiss) {
  Fixture f(/*entries=*/1);
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a.has_value());
  const Cycle t = f.run_until_ready(*a, 0);
  f.lsq->release_load(*a);
  const auto b = f.lsq->load(L(1), TrafficClass::kCombined, t + 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, *a);
  EXPECT_FALSE(f.lsq->is_ready(*b));
  EXPECT_GE(f.run_until_ready(*b, t + 1), t + 1 + f.config.dram_latency);
  EXPECT_EQ(f.stats.dmb_read_misses, 2u);
}

TEST(Lsq, CountsLoadsAndStores) {
  Fixture f;
  (void)f.lsq->load(L(0), TrafficClass::kCombined, 0);
  (void)f.lsq->store(L(1), TrafficClass::kOutput, StoreKind::kThrough, 0);
  EXPECT_EQ(f.stats.lsq_loads, 1u);
  EXPECT_EQ(f.stats.lsq_stores, 1u);
}

// --- Retry of loads the DMB rejected (MSHRs or DRAM queue full) ---

using LoadWait = LoadStoreQueue::LoadWait;

bool unissued(const Fixture& f, LoadStoreQueue::EntryId id) {
  return f.lsq->load_wait_state(id) == LoadWait::kUnissued;
}

// Steps from `t` until `id` leaves the unissued state; returns the
// cycle of the accepting tick.
Cycle step_until_issued(Fixture& f, LoadStoreQueue::EntryId id, Cycle t,
                        Cycle limit = 200) {
  for (const Cycle end = t + limit; t < end; ++t) {
    f.step(t);
    if (!unissued(f, id)) return t;
  }
  ADD_FAILURE() << "load " << id << " never issued";
  return 0;
}

TEST(LsqRetry, FreedMshrGoesToOldestRejectedLoad) {
  Fixture f(/*entries=*/16, /*forwarding=*/true, /*mshrs=*/2);
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto b = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  const auto c = f.lsq->load(L(2), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a && b && c);
  f.step(0);
  EXPECT_FALSE(unissued(f, *a));
  EXPECT_FALSE(unissued(f, *b));
  EXPECT_TRUE(unissued(f, *c));
  // Younger misses arrive while both MSHRs are still busy.
  const auto d = f.lsq->load(L(3), TrafficClass::kCombined, 1);
  f.step(1);
  const auto e = f.lsq->load(L(4), TrafficClass::kCombined, 2);
  ASSERT_TRUE(d && e);

  // Each freed MSHR goes to the oldest waiting load, never a younger.
  Cycle t = step_until_issued(f, *c, 2);
  EXPECT_TRUE(unissued(f, *d));
  EXPECT_TRUE(unissued(f, *e));
  t = step_until_issued(f, *d, t + 1);
  EXPECT_TRUE(unissued(f, *e));
  step_until_issued(f, *e, t + 1);
  EXPECT_EQ(f.stats.dmb_read_misses, 5u);
}

TEST(LsqRetry, SharedLineJoinsTheFreshMshrInTheSameTick) {
  // B and D wait on the same line, C between them on another. When A's
  // MSHR frees, B takes it and D piggybacks as a secondary miss in the
  // same tick; C, older than D, must keep waiting.
  Fixture f(/*entries=*/16, /*forwarding=*/true, /*mshrs=*/1);
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto b = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  const auto c = f.lsq->load(L(2), TrafficClass::kCombined, 0);
  const auto d = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a && b && c && d);
  step_until_issued(f, *b, 0);
  EXPECT_FALSE(unissued(f, *d));
  EXPECT_TRUE(unissued(f, *c));
  EXPECT_EQ(f.lsq->load_wait_state(*d), LoadWait::kDramFill);
}

// MSHRs stay full (A's fill takes dram_latency) while B waits on L(1);
// `join` makes L(1) resident or in flight some other way, after which
// B must be accepted on the very next tick.
template <typename Join>
void expect_join_wakes_rejected_load(Join join) {
  Fixture f(/*entries=*/16, /*forwarding=*/true, /*mshrs=*/1);
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto b = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a && b);
  f.step(0);
  f.step(1);
  ASSERT_TRUE(unissued(f, *b));
  join(f, Cycle{2});
  f.step(2);
  EXPECT_FALSE(unissued(f, *b));
  EXPECT_TRUE(f.dmb->has_pending_miss_for(L(0)));  // no MSHR freed
  EXPECT_EQ(f.stats.dmb_read_hits, 1u);
  f.run_until_ready(*b, 3);
}

TEST(LsqRetry, WriteAllocatedLineWakesRejectedLoad) {
  expect_join_wakes_rejected_load([](Fixture& f, Cycle now) {
    ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, now));
  });
}

TEST(LsqRetry, PrefetchedLineWakesRejectedLoad) {
  expect_join_wakes_rejected_load([](Fixture& f, Cycle now) {
    ASSERT_TRUE(f.dmb->prefetch(L(1), TrafficClass::kCombined, now));
  });
}

TEST(LsqRetry, AllocatingStoreWakesRejectedLoad) {
  // Same join, driven through the queue's own store drain: forwarding
  // is off, so the load can only see the line through the DMB.
  Fixture f(/*entries=*/16, /*forwarding=*/false, /*mshrs=*/1);
  const auto a = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto b = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  ASSERT_TRUE(a && b);
  f.step(0);
  ASSERT_TRUE(unissued(f, *b));
  ASSERT_TRUE(f.lsq->store(L(1), TrafficClass::kCombined,
                           StoreKind::kAllocate, 1));
  f.step(1);  // the store drains after this tick's retries
  EXPECT_TRUE(unissued(f, *b));
  f.step(2);
  EXPECT_FALSE(unissued(f, *b));
  EXPECT_TRUE(f.dmb->has_pending_miss_for(L(0)));
}

TEST(LsqRetry, FullMshrsWithoutJoinsAcceptNothing) {
  Fixture f(/*entries=*/16, /*forwarding=*/true, /*mshrs=*/1);
  Observer obs;
  f.lsq->set_observer(&obs);
  const Counter& rejects = obs.metrics().counter("lsq.load_rejects");
  std::vector<LoadStoreQueue::EntryId> waiting;
  ASSERT_TRUE(f.lsq->load(L(0), TrafficClass::kCombined, 0));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto id = f.lsq->load(L(i), TrafficClass::kCombined, 0);
    ASSERT_TRUE(id);
    waiting.push_back(*id);
  }
  f.step(0);
  EXPECT_TRUE(f.lsq->ticked_active());  // L(0) took the MSHR
  EXPECT_EQ(rejects.value(), 3u);
  // What fast_forward_to multiplies by each skipped cycle.
  EXPECT_EQ(f.lsq->parked_loads(), 3u);
  for (Cycle t = 1; t < 5; ++t) {
    f.step(t);
    EXPECT_FALSE(f.lsq->ticked_active()) << "cycle " << t;
    EXPECT_EQ(rejects.value(), 3u * (t + 1)) << "cycle " << t;
    for (const auto id : waiting) EXPECT_TRUE(unissued(f, id));
  }
  EXPECT_EQ(f.stats.dmb_read_misses, 1u);
  EXPECT_EQ(f.stats.dmb_read_hits, 0u);
}

TEST(LsqRetry, CheckpointWithRejectedLoadsRunsIdentically) {
  AcceleratorConfig config;
  config.dmb_mshr_entries = 2;
  config.dram_latency = 10;
  config.lsq_store_to_load_forwarding = false;
  MemorySystem original(config);
  LoadStoreQueue& lsq = original.lsq();
  std::vector<LoadStoreQueue::EntryId> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ids.push_back(lsq.load(L(i % 5), TrafficClass::kCombined, 0).value());
  }
  original.tick_components();
  original.advance();
  ids.push_back(lsq.load(L(7), TrafficClass::kCombined, 1).value());
  // A join still pending at the snapshot: L(3) is written into the
  // DMB, and its waiting load must see that after the restore too.
  ASSERT_TRUE(lsq.store(L(3), TrafficClass::kCombined, StoreKind::kAllocate,
                        1));
  original.tick_components();
  original.advance();
  ASSERT_TRUE(lsq.load_wait_state(ids[3]) == LoadWait::kUnissued);

  MemorySystem restored(config);
  restored = original;
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.stats(), original.stats());

  std::vector<bool> released(ids.size(), false);
  for (int cycle = 0; cycle < 120; ++cycle) {
    for (MemorySystem* ms : {&original, &restored}) ms->tick_components();
    EXPECT_EQ(original.lsq().ticked_active(), restored.lsq().ticked_active())
        << "cycle " << original.now();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (released[k]) continue;
      const LoadWait w = original.lsq().load_wait_state(ids[k]);
      ASSERT_EQ(w, restored.lsq().load_wait_state(ids[k]))
          << "load " << k << " at cycle " << original.now();
      if (w == LoadWait::kReady) {
        original.lsq().release_load(ids[k]);
        restored.lsq().release_load(ids[k]);
        released[k] = true;
      }
    }
    for (MemorySystem* ms : {&original, &restored}) ms->advance();
  }
  EXPECT_EQ(std::count(released.begin(), released.end(), true),
            static_cast<std::ptrdiff_t>(ids.size()));
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.stats(), original.stats());
  EXPECT_EQ(restored.dmb().resident_lines(), original.dmb().resident_lines());
  EXPECT_EQ(restored.dram().busy_until(), original.dram().busy_until());
}

}  // namespace
}  // namespace hymm
