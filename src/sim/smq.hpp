// Sparse Matrix Queue (paper Section IV-A): streams the compressed
// representation (pointers, indices, values) of the active sparse
// matrix in CSR or CSC order and hands decoded entries to the
// engines. The pointer buffer (4 KB) and index buffer (12 KB) bound
// the prefetch depth; refills are sequential DRAM reads.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/ring_queue.hpp"
#include "graph/csr.hpp"
#include "sim/dram.hpp"
#include "sim/stats.hpp"

namespace hymm {

// One decoded (flag, pointer, index, value) tuple of Fig 4. `outer`
// is the row for CSR streams and the column for CSC streams.
struct SmqEntry {
  NodeId outer = 0;
  NodeId inner = 0;
  Value value = 0.0f;
  bool first_of_outer = false;
  bool last_of_outer = false;
};

class Observer;

class SparseMatrixQueue {
 public:
  SparseMatrixQueue(const AcceleratorConfig& config, Dram& dram);

  // Copyable: a copy carries the stream cursors and in-flight refills;
  // rebind() re-points its DRAM, see Dram::rebind. It reads the same
  // attached matrix, which must outlive both while entries remain to
  // pop (a drained stream never reads it again, so a copy taken at a
  // phase boundary may outlive it). At a phase boundary only the
  // monotone refill tag counter matters (attach_common deliberately
  // does not reset it: DRAM read tags must stay unique across phases).
  void rebind(Dram& dram) { dram_ = &dram; }

  // Attaches the observability context (read-only hooks; nullptr
  // detaches).
  void set_observer(Observer* obs) { obs_ = obs; }

  // Begins streaming a matrix. Any previous stream must be finished.
  // The matrix must outlive the stream. cls tags the refill traffic
  // (kAdjacency for A, kFeatures for X).
  void attach_csr(const CsrMatrix& matrix, TrafficClass cls);
  void attach_csc(const CscMatrix& matrix, TrafficClass cls);

  // All entries decoded AND popped.
  bool finished() const { return popped_ == total_entries_; }

  // An entry is available this cycle.
  bool has_ready() const { return popped_ < decoded_; }
  // The oldest decoded entry, read from the attached matrix at the
  // pop cursor.
  SmqEntry front() const;
  void pop();

  // Decoded entries waiting to be consumed (the SMQ backlog counter
  // track).
  std::size_t backlog() const {
    return static_cast<std::size_t>(decoded_ - popped_);
  }

  // Issues refill reads and decodes arrived lines. Call once per
  // cycle after Dram::tick().
  void tick(Cycle now);

  // True when the last tick() changed observable state (decoded an
  // arrived refill or issued a new one).
  bool ticked_active() const { return tick_active_; }

  // True when a tick() now would change nothing: no refill in flight,
  // none to issue, and the last tick was inactive.
  bool idle() const {
    return inflight_refills_.empty() && !tick_active_ && !wants_refill();
  }

  // Refill arrivals ride Dram::next_event; issue is gated purely on
  // headroom and DRAM queue space, which change only at DRAM events
  // or engine pops. No internal timers.
  Cycle next_event(Cycle now) const {
    (void)now;
    return kNoEvent;
  }

 private:
  // Row-major cursors over the attached matrix; works for CSC too
  // because CscMatrix exposes its transpose through the same shape.
  void attach_common(TrafficClass cls, const std::vector<EdgeCount>& ptr,
                     const std::vector<NodeId>& inner,
                     const std::vector<Value>& values);
  // A refill of `count` entries arrived: they become poppable.
  void decode_entries(std::size_t count);
  // Stream left, index-buffer headroom for one more line and DRAM
  // queue space.
  bool wants_refill() const {
    return requested_ < total_entries_ &&
           static_cast<std::size_t>(requested_ - popped_) +
                   entries_per_line_ <=
               entry_capacity_ &&
           dram_->can_accept_read();
  }

  // The attached matrix: outer_count_ + 1 offsets into inner_/values_.
  const EdgeCount* ptr_ = nullptr;
  const NodeId* inner_ = nullptr;
  const Value* values_ = nullptr;
  TrafficClass cls_ = TrafficClass::kAdjacency;

  EdgeCount total_entries_ = 0;
  EdgeCount popped_ = 0;     // entries handed to the engine
  EdgeCount decoded_ = 0;    // entries whose refill arrived
  EdgeCount requested_ = 0;  // entries covered by issued refills
  NodeId outer_count_ = 0;

  // Outer unit of entry popped_ (the front), while entries remain.
  NodeId pop_outer_ = 0;
  // Outer unit of the last decoded entry (0 before the first): the
  // pointer stream follows it.
  NodeId decode_outer_ = 0;
  // First outer unit not yet wholly decoded (its degree unreported).
  NodeId degree_outer_ = 0;

  std::size_t entry_capacity_ = 0;   // index-buffer bound
  std::size_t entries_per_line_ = 0;
  // Pointer prefetch: one pointer line covers kLineBytes/4 outer
  // units; issued as streaming reads.
  NodeId pointer_lines_issued_ = 0;

  std::uint64_t next_refill_tag_ = 0;
  // In-flight refills: tag payload -> entry count (FIFO by tag).
  RingQueue<std::pair<std::uint64_t, std::size_t>> inflight_refills_;
  bool tick_active_ = false;

  Dram* dram_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
