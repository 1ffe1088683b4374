// Dense Matrix Buffer (paper Section IV-D): a unified on-chip buffer
// for W, XW and AXW data, with MSHRs, class-aware LRU eviction
// ("evicted in the order of W and then XW, ensuring that partial
// outputs are retained"), line pinning for the hybrid OP phase, and a
// near-memory accumulator that merges partial-output lines in place.
//
// The buffer tracks presence/dirtiness metadata only; numeric values
// live in host-side arrays (see DESIGN.md section 5, "Data vs
// timing").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/line_map.hpp"
#include "common/lru_list.hpp"
#include "common/ring_queue.hpp"
#include "common/small_vec.hpp"
#include "sim/dram.hpp"
#include "sim/stats.hpp"

namespace hymm {

class Observer;

class DenseMatrixBuffer {
 public:
  DenseMatrixBuffer(const AcceleratorConfig& config, Dram& dram,
                    SimStats& stats);

  // Copyable: a copy carries the full directory (resident lines in
  // recency order, MSHRs with their waiters, pending hits and
  // prefetches, ready waiters, the unread join list); rebind()
  // re-points its DRAM and counters, see Dram::rebind.
  void rebind(Dram& dram, SimStats& stats) {
    dram_ = &dram;
    stats_ = &stats;
  }

  // Attaches the observability context (obs/observer.hpp); hooks are
  // read-only and never change timing. nullptr detaches.
  void set_observer(Observer* obs) { obs_ = obs; }

  enum class ReadResult {
    kHit,     // waiter becomes ready after the hit latency
    kMiss,    // waiter queued on an MSHR; ready when DRAM fills
    kReject,  // out of MSHRs / DRAM queue full: the caller retries
  };

  // Requests one line for reading. waiter_tag is handed back through
  // ready_waiters() when the data is available.
  ReadResult read(Addr line, TrafficClass cls, std::uint64_t waiter_tag,
                  Cycle now);

  // Retry path for a parked load (see LoadStoreQueue): one the DMB
  // rejected while its line was absent from all three directories
  // (lines_, prefetch_inflight_, the MSHRs), with no join of that line
  // reported since. Skips the membership probes and goes straight to
  // the miss/reject decision, with outcomes and side effects identical
  // to read().
  ReadResult read_absent(Addr line, TrafficClass cls,
                         std::uint64_t waiter_tag, Cycle now);

  // Lines that may have joined a directory since the last
  // clear_joined_lines(): every MSHR allocation, write-allocate,
  // accumulate, pin and prefetch issue appends its line. MSHR fills
  // and prefetch arrivals do not: they only move a line that was
  // already reported when it entered the MSHR or prefetch table. The
  // LSQ reads and clears the list once per tick to wake parked loads.
  const std::vector<Addr>& joined_lines() const { return joined_lines_; }
  void clear_joined_lines() { joined_lines_.clear(); }

  // Streaming prefetch for sequential access patterns (the OP
  // engines' stationary-row stream): books DRAM bandwidth without an
  // MSHR and installs the line when it arrives. No-op when the line
  // is resident or already in flight; dropped silently when the
  // channel has no headroom. Returns true when a fetch was issued.
  bool prefetch(Addr line, TrafficClass cls, Cycle now);

  // Installs a line produced on-chip (combination result): dirty,
  // write-allocated. Returns false if no victim can be found or the
  // victim's writeback is blocked by DRAM write back-pressure.
  bool write_allocate(Addr line, TrafficClass cls, Cycle now);

  // Streams a line straight to DRAM without caching (final outputs,
  // append-only partial spill records). False when the DRAM write
  // buffer is full; the caller retries next cycle.
  bool write_through(Addr line, TrafficClass cls, Cycle now);

  // Near-memory accumulator: folds a partial-output line into the
  // buffer. Present -> merged in place; absent -> a fresh partial
  // line is allocated (footprint grows; an earlier spill of the same
  // line stays live in DRAM until the merge phase). Returns false if
  // allocation failed.
  bool accumulate(Addr line, Cycle now);

  // True when `line` is resident (test/diagnostic helper).
  bool contains(Addr line) const;

  // Marks a class dead for the upcoming phase: its resident lines
  // move to the cold end of the recency order so they are evicted
  // first. This is Section IV-D's "evicted in the order of W and
  // then XW" rule — the aggregation phase demotes kWeights.
  void demote_class(TrafficClass cls);

  // Pre-allocates and pins a partial-output line for the hybrid OP
  // phase. Pinned lines are never evicted. Returns false when the
  // pin budget (whole capacity) is exhausted.
  bool pin_partial(Addr line, Cycle now);

  // Unpins every pinned line and streams it to DRAM as a final
  // output write; shrinks the partial footprint accordingly.
  void unpin_and_writeback_outputs(Cycle now);

  // Writes back and removes one resident unpinned partial line as a
  // finished output of class `final_cls`; false when none remain.
  // Used by the OP engine's output-flush stage (one line per cycle).
  bool writeback_one_partial(TrafficClass final_cls, Cycle now);

  // Writes back every remaining dirty line (end of phase).
  void flush_dirty(Cycle now);

  // Drops all contents without traffic (end of a layer: the cached
  // intermediates are dead). Pinned lines must be unpinned first.
  void reset_contents();

  // Delivers DRAM fills and hit-latency expirations. Call once per
  // cycle after Dram::tick().
  void tick(Cycle now);

  // True when the last tick() changed observable state (installed a
  // prefetch, expired a pending hit, or processed a DRAM fill).
  bool ticked_active() const { return tick_active_; }

  // True when a tick() now would change nothing, and no join awaits
  // the LSQ tick that clears them: no MSHR, pending hit, prefetch,
  // ready waiter or unread join, and the last tick was inactive.
  bool idle() const {
    return mshrs_.empty() && pending_hits_.empty() &&
           pending_prefetches_.empty() && ready_waiters_.empty() &&
           joined_lines_.empty() && !tick_active_;
  }

  // Earliest cycle after `now` at which this buffer changes state on
  // its own: the head pending prefetch installing or the head pending
  // hit expiring. Both queues drain head-first, so the fronts bound
  // every later entry. DRAM fills ride Dram::next_event. kNoEvent
  // when nothing is in flight here.
  Cycle next_event(Cycle now) const;

  // Waiter tags whose data became available this cycle.
  const std::vector<std::uint64_t>& ready_waiters() const {
    return ready_waiters_;
  }

  std::size_t resident_lines() const { return lines_.size(); }
  std::size_t pinned_lines() const { return pinned_count_; }
  bool has_pending_misses() const { return !mshrs_.empty(); }

  // True when `line` has an outstanding miss fill in flight from DRAM
  // (cycle-accounting query; never mutates state).
  bool has_pending_miss_for(Addr line) const {
    return mshr_index(line) < mshr_lines_.size();
  }

 private:
  struct LineState {
    TrafficClass cls = TrafficClass::kWeights;
    bool dirty = false;
    bool pinned = false;
    LruList<Addr>::Handle lru_it = LruList<Addr>::kNil;  // recency node
  };

  struct Mshr {
    TrafficClass cls = TrafficClass::kWeights;
    Cycle alloc_cycle = 0;  // for the fill-latency histogram
    SmallVec<std::uint64_t, 2> waiters;
  };

  struct PendingHit {
    std::uint64_t tag = 0;
    Cycle ready_cycle = 0;
  };

  // Inserts a (possibly dirty) line, evicting if needed. Returns
  // false when every resident line is pinned or (unless
  // ignore_write_bp) a dirty victim's writeback is blocked by DRAM
  // write back-pressure.
  bool install(Addr line, TrafficClass cls, bool dirty, Cycle now,
               bool ignore_write_bp = false);

  // Picks and removes a victim: oldest unpinned data line, else
  // oldest unpinned partial line; writes it back if dirty.
  bool evict_one(Cycle now, bool ignore_write_bp = false);

  void touch(Addr line, LineState& state);

  std::uint64_t dram_tag_for(Addr line) const;

  // Index of the MSHR for `line` in mshrs_, mshrs_.size() when none.
  std::size_t mshr_index(Addr line) const {
    return static_cast<std::size_t>(
        std::find(mshr_lines_.begin(), mshr_lines_.end(), line) -
        mshr_lines_.begin());
  }
  void erase_mshr(std::size_t i);

  std::size_t capacity_lines_;
  Cycle hit_latency_;
  Cycle dram_latency_;
  std::size_t mshr_capacity_;
  EvictionPolicy policy_;

  LruList<Addr>& list_for(TrafficClass cls) {
    return cls == TrafficClass::kPartial ? partial_lru_ : data_lru_;
  }

  // Line-indexed directory (common/line_map.hpp): every load offered
  // to read() probes it, prefetch_inflight_ and the MSHRs.
  LineMap<LineState> lines_;
  // Two recency tiers, front = oldest. Data lines (W, XW, ...) share
  // one LRU so the phase's live working set wins regardless of class;
  // partial-output lines are victimized only when no data line is
  // left ("ensuring that partial outputs are retained", Section
  // IV-D). Index-based lists (common/lru_list.hpp): a touch rewrites
  // links in place and handles stay valid across neighbour moves.
  LruList<Addr> data_lru_;
  LruList<Addr> partial_lru_;
  std::size_t pinned_count_ = 0;

  // The MSHR file: at most mshr_capacity_ outstanding misses, kept
  // dense (erase moves the last entry into the hole), so a lookup is a
  // linear scan of mshr_lines_. mshr_lines_[i] is the line of
  // mshrs_[i].
  std::vector<Addr> mshr_lines_;
  std::vector<Mshr> mshrs_;
  std::vector<Addr> joined_lines_;
  RingQueue<PendingHit> pending_hits_;
  std::vector<std::uint64_t> ready_waiters_;
  bool tick_active_ = false;
  // Scratch for demote_class's stable partition over the data tier.
  std::vector<LruList<Addr>::Handle> demote_scratch_;

  struct PendingPrefetch {
    Addr line = 0;
    TrafficClass cls = TrafficClass::kCombined;
    Cycle ready_cycle = 0;
  };
  RingQueue<PendingPrefetch> pending_prefetches_;
  // line -> arrival cycle of an in-flight prefetch
  LineMap<Cycle> prefetch_inflight_;

  Dram* dram_;
  SimStats* stats_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
