#include "sim/dram.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

Dram::Dram(const AcceleratorConfig& config, SimStats& stats)
    : latency_(config.dram_latency),
      queue_entries_(config.dram_queue_entries),
      stats_(&stats) {
  // One line per cycle is the native rate of the model; other
  // bandwidths scale the slot width below.
  HYMM_CHECK(config.dram_bytes_per_cycle > 0);
  cycles_per_line_ = std::max<Cycle>(
      1, static_cast<Cycle>(kLineBytes / config.dram_bytes_per_cycle));
  write_buffer_window_ =
      static_cast<Cycle>(config.dram_write_buffer_lines) * cycles_per_line_;
  inflight_.reserve(queue_entries_);
  completions_.reserve(queue_entries_);
}

Cycle Dram::next_event(Cycle now) const {
  Cycle e = kNoEvent;
  if (!inflight_.empty()) {
    // reserve_slot keeps next_slot_ monotone, so the queue is ordered
    // by ready_cycle and the front is the earliest completion.
    e = std::min(e, std::max(inflight_.front().ready_cycle, now + 1));
  }
  if (next_slot_ > now + write_buffer_window_) {
    // can_accept_write() is false right now; it flips back on exactly
    // when the booked slots fall inside the window again.
    e = std::min(e, next_slot_ - write_buffer_window_);
  }
  return e;
}

bool Dram::can_accept_write(Cycle now) const {
  return next_slot_ <= now + write_buffer_window_;
}

bool Dram::can_accept_read() const {
  return inflight_.size() < queue_entries_;
}

Cycle Dram::reserve_slot(Cycle now) {
  const Cycle slot = std::max(now, next_slot_);
  next_slot_ = slot + cycles_per_line_;
  return slot;
}

void Dram::issue_read(Addr line_addr, TrafficClass cls, std::uint64_t tag,
                      Cycle now) {
  HYMM_CHECK_MSG(can_accept_read(), "DRAM read queue overflow");
  (void)line_addr;
  const Cycle slot = reserve_slot(now);
  inflight_.push_back(Inflight{tag, slot + latency_, now});
  stats_->dram_read_bytes[static_cast<std::size_t>(cls)] += kLineBytes;
  HYMM_OBS(obs_, on_dram_line());
}

void Dram::issue_write(Addr line_addr, TrafficClass cls, Cycle now) {
  (void)line_addr;
  reserve_slot(now);
  stats_->dram_write_bytes[static_cast<std::size_t>(cls)] += kLineBytes;
  HYMM_OBS(obs_, on_dram_line());
}

void Dram::issue_streaming_read(TrafficClass cls, Cycle now) {
  reserve_slot(now);
  stats_->dram_read_bytes[static_cast<std::size_t>(cls)] += kLineBytes;
  HYMM_OBS(obs_, on_dram_line());
}

void Dram::tick(Cycle now) {
  completions_.clear();
  while (!inflight_.empty() && inflight_.front().ready_cycle <= now) {
    // Issue -> delivery, including bandwidth queueing. Delivery
    // happens at the same cycle under fast-forward (the span jump
    // lands exactly on the head's ready_cycle), so the histogram is
    // mode-invariant.
    HYMM_OBS(obs_,
             observe_dram_read_latency(now - inflight_.front().issue_cycle));
    completions_.push_back(inflight_.front().tag);
    inflight_.pop_front();
  }
}

}  // namespace hymm
