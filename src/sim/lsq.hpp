// Load/Store Queue (paper Section IV-B): 128 entries shared by loads
// and stores, store-to-load forwarding for XW produced by the
// combination phase, and latency hiding — younger loads proceed while
// a missed load waits. Store ordering is not tracked (output
// addresses are unique in SpDeMM).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/line_map.hpp"
#include "common/ring_queue.hpp"
#include "sim/dmb.hpp"
#include "sim/stats.hpp"

namespace hymm {

// How a store drains into the memory system.
enum class StoreKind {
  kThrough,     // stream to DRAM (final output rows, spill records)
  kAllocate,    // write-allocate in the DMB (combination XW rows)
  kAccumulate,  // near-memory accumulator merge (partial outputs)
};

class Observer;

class LoadStoreQueue {
 public:
  // A load's slot index in [0, lsq_entries). A released slot goes
  // back on the free list and a later load() may return it again.
  using EntryId = std::uint32_t;

  LoadStoreQueue(const AcceleratorConfig& config, DenseMatrixBuffer& dmb,
                 SimStats& stats);

  // Copyable: a copy carries the load slots, new and parked loads, the
  // store queue and the store-to-load forwarding window (which
  // persists across phases and feeds aggregation-phase forwards);
  // rebind() re-points its DMB and counters, see Dram::rebind.
  void rebind(DenseMatrixBuffer& dmb, SimStats& stats) {
    dmb_ = &dmb;
    stats_ = &stats;
  }

  // Attaches the observability context (read-only hooks; nullptr
  // detaches).
  void set_observer(Observer* obs) { obs_ = obs; }

  // Free entries right now (loads waiting for data + undrained
  // stores both occupy entries).
  std::size_t free_entries() const;

  // Allocates a load entry. Forwarded loads (line matches an
  // undrained store) are ready immediately. Returns nullopt when the
  // queue is full.
  std::optional<EntryId> load(Addr line, TrafficClass cls, Cycle now);

  bool is_ready(EntryId id) const;

  // Why a load entry is (not) ready — drives the engines' cycle
  // accounting. Read-only; never changes timing.
  enum class LoadWait {
    kReady,     // data available this cycle
    kDramFill,  // DMB miss fill in flight from DRAM
    kDmbPending,  // inside the DMB pipeline (hit latency / prefetch)
    kUnissued,  // rejected by the DMB (MSHRs or DRAM read queue full)
  };
  LoadWait load_wait_state(EntryId id) const;

  // Frees a ready load entry after its data was consumed.
  void release_load(EntryId id);

  // Allocates a store entry; stores drain one per cycle. Returns
  // false when the queue is full.
  bool store(Addr line, TrafficClass cls, StoreKind kind, Cycle now);

  // Progress: collect DMB readiness, offer new and parked loads to the
  // DMB, drain one store. Call once per cycle after
  // DenseMatrixBuffer::tick().
  //
  // A load the DMB rejects is parked: its line was absent from every
  // DMB directory at that moment. The tick offers parked loads again,
  // oldest first, only while miss capacity lasts or after their line
  // joined a directory (DenseMatrixBuffer::joined_lines()); otherwise
  // they are counted as rejected without a probe. MSHR grant order and
  // every outcome equal an ordered retry of every waiting load.
  void tick(Cycle now);

  // True when the last tick() changed observable state (marked a load
  // ready, got a load accepted, or drained a store). Rejects and
  // blocked store drains are pure no-ops and repeat identically until
  // a DRAM/DMB event, so they do not count.
  bool ticked_active() const { return tick_active_; }

  // True when a tick() now would change nothing: no new or parked load
  // to offer, no store to drain, and the last tick was inactive
  // (ready waiters are the DMB's, see DenseMatrixBuffer::idle).
  bool idle() const {
    return arrivals_.empty() && parked_.empty() && store_queue_.empty() &&
           !tick_active_;
  }

  // The queue holds no internal timers: every state change is driven
  // by the DMB/DRAM events or by engine action.
  Cycle next_event(Cycle now) const {
    (void)now;
    return kNoEvent;
  }

  bool all_stores_drained() const { return store_queue_.empty(); }
  std::size_t pending_loads() const { return slots_.size() - free_.size(); }
  std::size_t pending_stores() const { return store_queue_.size(); }
  // Loads the DMB rejected and that still wait for an offer.
  std::size_t parked_loads() const { return parked_.size(); }

 private:
  struct LoadEntry {
    Addr line = 0;
    TrafficClass cls = TrafficClass::kCombined;
    Cycle issue_cycle = 0;  // allocation cycle, for latency histograms
    bool live = false;      // slot holds an unreleased load
    bool issued = false;    // accepted by the DMB
    bool ready = false;
  };

  struct StoreEntry {
    Addr line = 0;
    TrafficClass cls = TrafficClass::kOutput;
    StoreKind kind = StoreKind::kThrough;
  };

  std::size_t capacity_;
  bool forwarding_;

  // A load not yet accepted by the DMB. Carries line/class so a
  // reject does not touch its slot (the slot is only touched on
  // acceptance).
  struct UnissuedLoad {
    EntryId id = 0;
    Addr line = 0;
    TrafficClass cls = TrafficClass::kCombined;
  };

  // Step 2 of tick(): offers parked_ then arrivals_ to the DMB.
  void issue_loads(Cycle now);
  void mark_issued(EntryId id);
  // Drops one parked load on `line`; true when another still waits on
  // it.
  bool unpark(Addr line);

  // One slot per LSQ entry (loads never outnumber the entries);
  // free_ holds the unused slot ids.
  std::vector<LoadEntry> slots_;
  std::vector<EntryId> free_;
  // Loads allocated since the last tick; their first offer is a full
  // DenseMatrixBuffer::read().
  std::vector<UnissuedLoad> arrivals_;
  // Rejected loads, oldest first. Each one's line was absent from every
  // DMB directory when it was rejected, and any join of that line since
  // is still in dmb_->joined_lines().
  RingQueue<UnissuedLoad> parked_;
  // line -> parked loads waiting on it; derived from parked_.
  LineMap<std::uint32_t> parked_lines_;
  bool tick_active_ = false;
  RingQueue<StoreEntry> store_queue_;
  // Store-to-load forwarding window: the last `capacity_` stored
  // lines. Section IV-B forwards from any matching entry — the store
  // need not still be pending, only not yet replaced. SpDeMM output
  // addresses are written once, so stale-data hazards cannot arise.
  RingQueue<Addr> forward_fifo_;
  LineMap<std::uint32_t> forward_lines_;

  DenseMatrixBuffer* dmb_;
  SimStats* stats_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
