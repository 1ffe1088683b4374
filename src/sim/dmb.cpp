#include "sim/dmb.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/hooks.hpp"
#include "sim/tags.hpp"

namespace hymm {

DenseMatrixBuffer::DenseMatrixBuffer(const AcceleratorConfig& config,
                                     Dram& dram, SimStats& stats)
    : capacity_lines_(config.dmb_lines()),
      hit_latency_(config.dmb_hit_latency),
      dram_latency_(config.dram_latency),
      mshr_capacity_(config.dmb_mshr_entries),
      policy_(config.eviction_policy),
      dram_(&dram),
      stats_(&stats) {
  HYMM_CHECK(capacity_lines_ > 0);
  mshr_lines_.reserve(mshr_capacity_);
  mshrs_.reserve(mshr_capacity_);
  ready_waiters_.reserve(mshr_capacity_ * 2);
}

Cycle DenseMatrixBuffer::next_event(Cycle now) const {
  Cycle e = kNoEvent;
  if (!pending_prefetches_.empty()) {
    e = std::min(e, std::max(pending_prefetches_.front().ready_cycle, now + 1));
  }
  if (!pending_hits_.empty()) {
    e = std::min(e, std::max(pending_hits_.front().ready_cycle, now + 1));
  }
  return e;
}

std::uint64_t DenseMatrixBuffer::dram_tag_for(Addr line) const {
  return make_tag(kDmbTagSource, line);
}

void DenseMatrixBuffer::erase_mshr(std::size_t i) {
  HYMM_DCHECK(i < mshrs_.size());
  if (i + 1 != mshrs_.size()) {
    mshr_lines_[i] = mshr_lines_.back();
    mshrs_[i] = std::move(mshrs_.back());
  }
  mshr_lines_.pop_back();
  mshrs_.pop_back();
}

void DenseMatrixBuffer::touch(Addr line, LineState& state) {
  (void)line;
  if (policy_ != EvictionPolicy::kLru) return;
  list_for(state.cls).move_to_back(state.lru_it);
}

DenseMatrixBuffer::ReadResult DenseMatrixBuffer::read(Addr line,
                                                      TrafficClass cls,
                                                      std::uint64_t waiter_tag,
                                                      Cycle now) {
  if (LineState* state = lines_.find(line)) {
    ++stats_->dmb_read_hits;
    HYMM_OBS(obs_, spatial().on_dmb_hit());
    touch(line, *state);
    pending_hits_.push_back(PendingHit{waiter_tag, now + hit_latency_});
    return ReadResult::kHit;
  }

  // An in-flight prefetch covers this line: the waiter gets the data
  // on arrival without consuming an MSHR.
  if (const Cycle* arrival = prefetch_inflight_.find(line)) {
    ++stats_->dmb_read_hits;
    HYMM_OBS(obs_, spatial().on_dmb_hit());
    pending_hits_.push_back(
        PendingHit{waiter_tag, std::max(now + hit_latency_, *arrival)});
    return ReadResult::kHit;
  }

  if (const std::size_t i = mshr_index(line); i < mshrs_.size()) {
    // Secondary miss: piggyback on the outstanding fill.
    ++stats_->dmb_read_misses;
    HYMM_OBS(obs_, spatial().on_dmb_miss());
    mshrs_[i].waiters.push_back(waiter_tag);
    return ReadResult::kMiss;
  }

  return read_absent(line, cls, waiter_tag, now);
}

DenseMatrixBuffer::ReadResult DenseMatrixBuffer::read_absent(
    Addr line, TrafficClass cls, std::uint64_t waiter_tag, Cycle now) {
  HYMM_DCHECK(!lines_.contains(line) && !prefetch_inflight_.contains(line) &&
              !has_pending_miss_for(line));
  if (mshrs_.size() >= mshr_capacity_ || !dram_->can_accept_read()) {
    return ReadResult::kReject;
  }

  ++stats_->dmb_read_misses;
  HYMM_OBS(obs_, spatial().on_dmb_miss());
  Mshr mshr;
  mshr.cls = cls;
  mshr.alloc_cycle = now;
  mshr.waiters.push_back(waiter_tag);
  mshr_lines_.push_back(line);
  mshrs_.push_back(std::move(mshr));
  joined_lines_.push_back(line);
  dram_->issue_read(line, cls, dram_tag_for(line), now);
  return ReadResult::kMiss;
}

bool DenseMatrixBuffer::install(Addr line, TrafficClass cls, bool dirty,
                                Cycle now, bool ignore_write_bp) {
  if (LineState* state = lines_.find(line)) {
    state->dirty = state->dirty || dirty;
    if (state->cls != cls) {
      // Reclassified line (e.g. an XW line rewritten): move it to the
      // appropriate recency tier.
      list_for(state->cls).erase(state->lru_it);
      state->lru_it = list_for(cls).push_back(line);
      state->cls = cls;
    } else {
      touch(line, *state);
    }
    return true;
  }
  while (lines_.size() >= capacity_lines_) {
    if (!evict_one(now, ignore_write_bp)) return false;
  }
  LineState state;
  state.cls = cls;
  state.dirty = dirty;
  state.lru_it = list_for(cls).push_back(line);
  lines_.emplace(line, state);
  return true;
}

bool DenseMatrixBuffer::evict_one(Cycle now, bool ignore_write_bp) {
  for (auto* list : {&data_lru_, &partial_lru_}) {
    for (auto h = list->front(); h != LruList<Addr>::kNil;
         h = list->next(h)) {
      const Addr victim = list->value(h);
      LineState* state = lines_.find(victim);
      HYMM_DCHECK(state != nullptr);
      if (state->pinned) continue;
      if (state->dirty) {
        // A dirty victim needs a writeback slot; stall the allocation
        // under write back-pressure instead of booking unbounded
        // bandwidth.
        if (!ignore_write_bp && !dram_->can_accept_write(now)) return false;
        dram_->issue_write(victim, state->cls, now);
        if (state->cls == TrafficClass::kPartial) {
          // Spilled partial stays live (unmerged) in DRAM; footprint
          // is unchanged, but the spill itself is counted.
          ++stats_->dmb_partial_spills;
          HYMM_OBS(obs_, on_partial_spill(now));
        }
      }
      list->erase(h);
      lines_.erase(victim);
      ++stats_->dmb_evictions;
      HYMM_OBS(obs_, on_dmb_eviction(now));
      return true;
    }
  }
  return false;
}

bool DenseMatrixBuffer::write_allocate(Addr line, TrafficClass cls,
                                       Cycle now) {
  joined_lines_.push_back(line);
  return install(line, cls, /*dirty=*/true, now);
}

bool DenseMatrixBuffer::write_through(Addr line, TrafficClass cls,
                                      Cycle now) {
  if (!dram_->can_accept_write(now)) return false;
  dram_->issue_write(line, cls, now);
  return true;
}

bool DenseMatrixBuffer::accumulate(Addr line, Cycle now) {
  joined_lines_.push_back(line);
  if (LineState* state = lines_.find(line)) {
    HYMM_DCHECK(state->cls == TrafficClass::kPartial);
    ++stats_->dmb_accumulate_hits;
    HYMM_OBS(obs_, spatial().on_dmb_hit());
    ++stats_->merge_adds;
    state->dirty = true;
    touch(line, *state);
    return true;
  }
  if (!install(line, TrafficClass::kPartial, /*dirty=*/true, now)) {
    return false;
  }
  ++stats_->dmb_accumulate_misses;
  HYMM_OBS(obs_, spatial().on_dmb_miss());
  stats_->note_partial_bytes(static_cast<std::int64_t>(kLineBytes));
  return true;
}

bool DenseMatrixBuffer::contains(Addr line) const {
  return lines_.contains(line);
}

bool DenseMatrixBuffer::prefetch(Addr line, TrafficClass cls, Cycle now) {
  if (lines_.contains(line) || has_pending_miss_for(line) ||
      prefetch_inflight_.contains(line)) {
    return false;
  }
  // Prefetches ride the same headroom window as writes so a saturated
  // channel throttles them before they starve demand traffic.
  if (!dram_->can_accept_write(now)) return false;
  joined_lines_.push_back(line);
  dram_->issue_streaming_read(cls, now);
  HYMM_OBS(obs_, on_dmb_prefetch());
  const Cycle ready = now + dram_latency_;
  pending_prefetches_.push_back(PendingPrefetch{line, cls, ready});
  prefetch_inflight_.emplace(line, ready);
  return true;
}

void DenseMatrixBuffer::demote_class(TrafficClass cls) {
  HYMM_CHECK_MSG(cls != TrafficClass::kPartial,
                 "partial lines cannot be demoted");
  // Stable partition: demoted lines first (oldest), others keep
  // their relative recency. Collect cold-to-hot, then move to the
  // front in reverse so relative order within the demoted set is
  // preserved; node handles stay valid throughout.
  demote_scratch_.clear();
  for (auto h = data_lru_.front(); h != LruList<Addr>::kNil;
       h = data_lru_.next(h)) {
    LineState* state = lines_.find(data_lru_.value(h));
    HYMM_DCHECK(state != nullptr);
    if (state->cls == cls) demote_scratch_.push_back(h);
  }
  for (auto it = demote_scratch_.rbegin(); it != demote_scratch_.rend();
       ++it) {
    data_lru_.move_to_front(*it);
  }
}

bool DenseMatrixBuffer::pin_partial(Addr line, Cycle now) {
  if (pinned_count_ >= capacity_lines_) return false;
  joined_lines_.push_back(line);
  // Pinning happens at phase start and must not fail on transient
  // write back-pressure: the evicted combination lines book their
  // writeback bandwidth and the phase simply starts later.
  if (!install(line, TrafficClass::kPartial, /*dirty=*/true, now,
               /*ignore_write_bp=*/true)) {
    return false;
  }
  auto& state = lines_.at(line);
  if (!state.pinned) {
    state.pinned = true;
    ++pinned_count_;
    stats_->note_partial_bytes(static_cast<std::int64_t>(kLineBytes));
  }
  return true;
}

void DenseMatrixBuffer::unpin_and_writeback_outputs(Cycle now) {
  // Visits lines in address order. The order is unobservable: each
  // pinned line books one write of the same class, and the byte and
  // partial-footprint counters are order-independent.
  lines_.for_each([&](Addr line, LineState& state) {
    if (!state.pinned) return;
    dram_->issue_write(line, TrafficClass::kOutput, now);
    stats_->note_partial_bytes(-static_cast<std::int64_t>(kLineBytes));
    --pinned_count_;
    list_for(state.cls).erase(state.lru_it);
    lines_.erase(line);
  });
  HYMM_DCHECK(pinned_count_ == 0);
}

bool DenseMatrixBuffer::writeback_one_partial(TrafficClass final_cls,
                                              Cycle now) {
  for (auto h = partial_lru_.front(); h != LruList<Addr>::kNil;
       h = partial_lru_.next(h)) {
    const Addr line = partial_lru_.value(h);
    LineState* state = lines_.find(line);
    HYMM_DCHECK(state != nullptr);
    if (state->pinned) continue;
    dram_->issue_write(line, final_cls, now);
    stats_->note_partial_bytes(-static_cast<std::int64_t>(kLineBytes));
    partial_lru_.erase(h);
    lines_.erase(line);
    return true;
  }
  return false;
}

void DenseMatrixBuffer::flush_dirty(Cycle now) {
  // Visits lines in address order. The order is unobservable: each
  // dirty line books one write and the per-class byte counters are
  // order-independent.
  lines_.for_each([&](Addr line, LineState& state) {
    if (!state.dirty) return;
    dram_->issue_write(line, state.cls, now);
    if (state.cls == TrafficClass::kPartial) {
      stats_->note_partial_bytes(-static_cast<std::int64_t>(kLineBytes));
    }
    state.dirty = false;
  });
}

void DenseMatrixBuffer::reset_contents() {
  HYMM_CHECK_MSG(pinned_count_ == 0, "unpin before resetting the DMB");
  // Every line is absent afterwards, so no earlier join matters.
  joined_lines_.clear();
  lines_.clear();
  data_lru_.clear();
  partial_lru_.clear();
  mshr_lines_.clear();
  mshrs_.clear();
  pending_hits_.clear();
  ready_waiters_.clear();
  pending_prefetches_.clear();
  prefetch_inflight_.clear();
}

void DenseMatrixBuffer::tick(Cycle now) {
  ready_waiters_.clear();
  tick_active_ = false;
  // Arrived prefetches install as clean lines (install failure under
  // back-pressure just drops the prefetch).
  while (!pending_prefetches_.empty() &&
         pending_prefetches_.front().ready_cycle <= now) {
    const PendingPrefetch& pf = pending_prefetches_.front();
    install(pf.line, pf.cls, /*dirty=*/false, now);
    prefetch_inflight_.erase(pf.line);
    pending_prefetches_.pop_front();
    tick_active_ = true;
  }
  // Hit-latency expirations.
  while (!pending_hits_.empty() && pending_hits_.front().ready_cycle <= now) {
    ready_waiters_.push_back(pending_hits_.front().tag);
    pending_hits_.pop_front();
    tick_active_ = true;
  }
  // DRAM fills addressed to us.
  for (const std::uint64_t tag : dram_->completions()) {
    if (tag_source(tag) != kDmbTagSource) continue;
    tick_active_ = true;
    const Addr line = tag_payload(tag);
    const std::size_t i = mshr_index(line);
    HYMM_DCHECK(i < mshrs_.size());
    const Mshr& mshr = mshrs_[i];
    // MSHR allocation -> fill install (the buffer-side miss latency).
    HYMM_OBS(obs_, observe_dmb_fill_latency(now - mshr.alloc_cycle));
    // Install as a clean line; when no victim is available (e.g.
    // everything pinned or write back-pressure) the fill bypasses the
    // buffer — the waiters still get their data.
    install(line, mshr.cls, /*dirty=*/false, now);
    for (const std::uint64_t waiter : mshr.waiters) {
      ready_waiters_.push_back(waiter);
    }
    erase_mshr(i);
  }
}

}  // namespace hymm
