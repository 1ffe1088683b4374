// Off-chip memory channel: fixed access latency plus a shared
// bandwidth pipe (64 GB/s at 1 GHz = one 64-byte line per cycle,
// Section IV). Reads complete through a tag queue; writes are
// fire-and-forget but still occupy bandwidth.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "sim/stats.hpp"

namespace hymm {

class Observer;

class Dram {
 public:
  Dram(const AcceleratorConfig& config, SimStats& stats);

  // Copyable: a copy carries the channel's whole dynamic state (booked
  // bandwidth, in-flight reads, undelivered completions) but still
  // counts into the original's stats until rebind() re-points it;
  // MemorySystem's copy does both.
  void rebind(SimStats& stats) { stats_ = &stats; }

  // Attaches the observability context (read-only hooks; nullptr
  // detaches).
  void set_observer(Observer* obs) { obs_ = obs; }

  // True when the read queue has room for another in-flight request.
  bool can_accept_read() const;

  // True when the channel is not booked more than the write-buffer
  // depth ahead of `now`. Writers must check this before issuing;
  // end-of-phase flushes are exempt (the phase loop drains them).
  bool can_accept_write(Cycle now) const;

  // Issues a one-line read; `tag` comes back via completions() once
  // latency + queueing have elapsed. Precondition: can_accept_read().
  void issue_read(Addr line_addr, TrafficClass cls, std::uint64_t tag,
                  Cycle now);

  // Issues a one-line write (no completion signal).
  void issue_write(Addr line_addr, TrafficClass cls, Cycle now);

  // Accounts a deeply prefetched sequential read (SMQ pointer
  // stream): consumes bandwidth and counts bytes, but needs no
  // completion signal and no read-queue slot.
  void issue_streaming_read(TrafficClass cls, Cycle now);

  // Moves requests whose latency elapsed into the completion list.
  // Call once per cycle before consumers run.
  void tick(Cycle now);

  // Read tags that completed this cycle (valid until the next tick).
  const std::vector<std::uint64_t>& completions() const {
    return completions_;
  }

  // True when the last tick() changed observable state (delivered at
  // least one completion). Part of the fast-forward quiescence check.
  bool ticked_active() const { return !completions_.empty(); }

  // True when a tick() now would change nothing: no read in flight and
  // none delivered by the last tick.
  bool idle() const { return inflight_.empty() && completions_.empty(); }

  // Earliest cycle after `now` at which this channel changes state on
  // its own: the head in-flight read completing, or write headroom
  // returning once the booked slots drain back inside the
  // write-buffer window. kNoEvent when neither is scheduled.
  Cycle next_event(Cycle now) const;

  bool has_inflight_reads() const { return !inflight_.empty(); }

  // Cycle at which the channel finishes all accepted traffic,
  // including writes (used to drain at end of a phase).
  Cycle busy_until() const { return next_slot_; }

 private:
  struct Inflight {
    std::uint64_t tag = 0;
    Cycle ready_cycle = 0;
    Cycle issue_cycle = 0;  // for the read-latency histogram
  };

  // Reserves a bandwidth slot starting no earlier than `now`.
  Cycle reserve_slot(Cycle now);

  Cycle latency_;
  std::size_t queue_entries_;
  Cycle cycles_per_line_ = 1;      // bandwidth: cycles per 64-byte line
  Cycle write_buffer_window_ = 64; // slots a writer may book ahead
  Cycle next_slot_ = 0;            // next cycle the channel is free
  RingQueue<Inflight> inflight_;  // FIFO: fixed latency keeps order
  std::vector<std::uint64_t> completions_;
  SimStats* stats_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
