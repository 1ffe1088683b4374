#include "sim/lsq.hpp"

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

LoadStoreQueue::LoadStoreQueue(const AcceleratorConfig& config,
                               DenseMatrixBuffer& dmb, SimStats& stats)
    : capacity_(config.lsq_entries),
      forwarding_(config.lsq_store_to_load_forwarding),
      slots_(config.lsq_entries),
      dmb_(&dmb),
      stats_(&stats) {
  // Slot 0 on top of the free list, so loads fill slots from 0 up.
  free_.reserve(capacity_);
  for (std::size_t i = capacity_; i > 0; --i) {
    free_.push_back(static_cast<EntryId>(i - 1));
  }
  arrivals_.reserve(capacity_);
  parked_.reserve(capacity_);
  store_queue_.reserve(capacity_);
  forward_fifo_.reserve(capacity_ + 1);
}

std::size_t LoadStoreQueue::free_entries() const {
  const std::size_t used = pending_loads() + store_queue_.size();
  return used >= capacity_ ? 0 : capacity_ - used;
}

std::optional<LoadStoreQueue::EntryId> LoadStoreQueue::load(Addr line,
                                                            TrafficClass cls,
                                                            Cycle now) {
  if (free_entries() == 0) return std::nullopt;
  ++stats_->lsq_loads;
  const EntryId id = free_.back();
  free_.pop_back();
  LoadEntry& entry = slots_[id];
  entry = LoadEntry{};
  entry.line = line;
  entry.cls = cls;
  entry.issue_cycle = now;
  entry.live = true;
  if (forwarding_ && forward_lines_.contains(line)) {
    // A store entry for this line exists (pending or already
    // drained): forward its data without touching the memory system
    // (Section IV-B).
    ++stats_->lsq_forwards;
    entry.issued = true;
    entry.ready = true;
  } else {
    arrivals_.push_back(UnissuedLoad{id, line, cls});
  }
  return id;
}

bool LoadStoreQueue::is_ready(EntryId id) const {
  HYMM_DCHECK(id < slots_.size() && slots_[id].live);
  return slots_[id].ready;
}

LoadStoreQueue::LoadWait LoadStoreQueue::load_wait_state(EntryId id) const {
  HYMM_DCHECK(id < slots_.size() && slots_[id].live);
  const LoadEntry& entry = slots_[id];
  if (entry.ready) return LoadWait::kReady;
  if (!entry.issued) return LoadWait::kUnissued;
  if (dmb_->has_pending_miss_for(entry.line)) return LoadWait::kDramFill;
  return LoadWait::kDmbPending;
}

void LoadStoreQueue::release_load(EntryId id) {
  HYMM_CHECK_MSG(id < slots_.size() && slots_[id].live,
                 "releasing unknown LSQ entry");
  LoadEntry& entry = slots_[id];
  HYMM_CHECK_MSG(entry.ready, "releasing a load that is not ready");
  entry.live = false;
  free_.push_back(id);
}

bool LoadStoreQueue::store(Addr line, TrafficClass cls, StoreKind kind,
                           Cycle now) {
  (void)now;
  if (free_entries() == 0) return false;
  ++stats_->lsq_stores;
  store_queue_.push_back(StoreEntry{line, cls, kind});
  ++forward_lines_[line];
  forward_fifo_.push_back(line);
  while (forward_fifo_.size() > capacity_) {
    const Addr oldest = forward_fifo_.front();
    forward_fifo_.pop_front();
    std::uint32_t* count = forward_lines_.find(oldest);
    HYMM_DCHECK(count != nullptr);
    if (--*count == 0) forward_lines_.erase(oldest);
  }
  return true;
}

void LoadStoreQueue::mark_issued(EntryId id) {
  HYMM_DCHECK(slots_[id].live);
  slots_[id].issued = true;
  tick_active_ = true;
}

bool LoadStoreQueue::unpark(Addr line) {
  std::uint32_t* count = parked_lines_.find(line);
  HYMM_DCHECK(count != nullptr);
  if (--*count > 0) return true;
  parked_lines_.erase(line);
  return false;
}

void LoadStoreQueue::issue_loads(Cycle now) {
  // A join on a parked load's line can turn its reject into a hit or a
  // secondary miss; only then do parked loads need the full probe.
  bool probe_all = false;
  if (!parked_.empty()) {
    for (const Addr line : dmb_->joined_lines()) {
      if (parked_lines_.contains(line)) {
        probe_all = true;
        break;
      }
    }
  }
  // Joins from here on (this tick's grants and store drain, the
  // engines' next step) are read by the next tick.
  dmb_->clear_joined_lines();

  // Otherwise every parked line is still absent: the oldest parked
  // loads take MSHRs while miss capacity lasts, and the rest are
  // rejected without a probe. A grant on a line another parked load
  // waits for makes that one a secondary miss, so the rest of the
  // queue then takes the full probe in order.
  while (!probe_all && !parked_.empty()) {
    const UnissuedLoad u = parked_.front();
    if (dmb_->read_absent(u.line, u.cls, u.id, now) ==
        DenseMatrixBuffer::ReadResult::kReject) {
      break;
    }
    parked_.pop_front();
    mark_issued(u.id);
    probe_all = unpark(u.line);
  }
  if (probe_all) {
    // One pass in age order; rejected loads rotate to the back, so
    // the survivors keep their relative order.
    for (std::size_t n = parked_.size(); n > 0; --n) {
      const UnissuedLoad u = parked_.front();
      parked_.pop_front();
      if (dmb_->read(u.line, u.cls, u.id, now) ==
          DenseMatrixBuffer::ReadResult::kReject) {
        parked_.push_back(u);
      } else {
        mark_issued(u.id);
        unpark(u.line);
      }
    }
  }
  std::uint64_t rejects = parked_.size();

  // New loads queue behind every parked one.
  for (const UnissuedLoad& u : arrivals_) {
    if (dmb_->read(u.line, u.cls, u.id, now) ==
        DenseMatrixBuffer::ReadResult::kReject) {
      ++rejects;
      parked_.push_back(u);
      ++parked_lines_[u.line];
    } else {
      mark_issued(u.id);
    }
  }
  arrivals_.clear();
  if (rejects > 0) HYMM_OBS(obs_, on_lsq_rejects(rejects));
}

void LoadStoreQueue::tick(Cycle now) {
  tick_active_ = false;
  // 1. Data arriving from the DMB. A waiter tag is the slot id of a
  // load the DMB accepted; a slot is released only once ready, so it
  // cannot be reused while its waiter is still in the DMB.
  for (const std::uint64_t tag : dmb_->ready_waiters()) {
    HYMM_DCHECK(tag < slots_.size() && slots_[tag].live &&
                slots_[tag].issued && !slots_[tag].ready);
    LoadEntry& entry = slots_[tag];
    entry.ready = true;
    tick_active_ = true;
    // Allocation -> ready latency; forwarded loads never pass through
    // here (they are born ready).
    HYMM_OBS(obs_, observe_load_latency(now - entry.issue_cycle));
  }

  // 2. Offer new and parked loads to the DMB.
  issue_loads(now);

  // 3. Drain one store per cycle.
  if (!store_queue_.empty()) {
    const StoreEntry& s = store_queue_.front();
    bool done = true;
    switch (s.kind) {
      case StoreKind::kThrough:
        done = dmb_->write_through(s.line, s.cls, now);
        break;
      case StoreKind::kAllocate:
        done = dmb_->write_allocate(s.line, s.cls, now);
        break;
      case StoreKind::kAccumulate:
        done = dmb_->accumulate(s.line, now);
        break;
    }
    if (done) {
      store_queue_.pop_front();
      tick_active_ = true;
    }
  }
}

}  // namespace hymm
