#include "sim/pe.hpp"

#include "common/check.hpp"
#include "obs/hooks.hpp"

namespace hymm {

PeArray::PeArray(const AcceleratorConfig& config, SimStats& stats)
    : pe_count_(config.pe_count), stats_(&stats) {}

bool PeArray::can_issue(Cycle now) const {
  return last_issue_cycle_ != now;
}

void PeArray::mark_busy(Cycle now) {
  HYMM_DCHECK(can_issue(now));
  last_issue_cycle_ = now;
  ++stats_->alu_busy_cycles;
}

void PeArray::mac(Value scalar, std::span<const Value> in,
                  std::span<Value> out, Cycle now) {
  HYMM_DCHECK(in.size() == out.size());
  mark_busy(now);
  ++stats_->mac_ops;
  HYMM_OBS(obs_, on_pe_mac(in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) out[i] += scalar * in[i];
}

void PeArray::add(std::span<const Value> in, std::span<Value> out,
                  Cycle now) {
  HYMM_DCHECK(in.size() == out.size());
  mark_busy(now);
  ++stats_->merge_adds;
  HYMM_OBS(obs_, on_pe_merge(in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) out[i] += in[i];
}

void PeArray::merge_op(Cycle now) {
  mark_busy(now);
  ++stats_->merge_adds;
  // A merge op engages the whole array width.
  HYMM_OBS(obs_, on_pe_merge(pe_count_));
}

void PeArray::stall(Cycle now) { last_issue_cycle_ = now; }

}  // namespace hymm
