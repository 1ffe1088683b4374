#include "sim/smq.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/hooks.hpp"
#include "sim/tags.hpp"

namespace hymm {

namespace {
// One compressed (index, value) pair is 8 bytes (Fig 4: 4-byte index,
// 4-byte single-precision value).
constexpr std::size_t kEntryBytes = 8;
// One pointer is 4 bytes.
constexpr std::size_t kPointerBytes = 4;
}  // namespace

SparseMatrixQueue::SparseMatrixQueue(const AcceleratorConfig& config,
                                     Dram& dram)
    : dram_(&dram) {
  entry_capacity_ = config.smq_index_bytes / kEntryBytes;
  entries_per_line_ = kLineBytes / kEntryBytes;
  HYMM_CHECK(entry_capacity_ >= entries_per_line_);
}

void SparseMatrixQueue::attach_common(TrafficClass cls,
                                      const std::vector<EdgeCount>& ptr,
                                      const std::vector<NodeId>& inner,
                                      const std::vector<Value>& values) {
  HYMM_CHECK_MSG(finished(), "previous SMQ stream still active");
  cls_ = cls;
  ptr_ = ptr.data();
  inner_ = inner.data();
  values_ = values.data();
  total_entries_ = inner.size();
  outer_count_ = static_cast<NodeId>(ptr.empty() ? 0 : ptr.size() - 1);
  popped_ = 0;
  decoded_ = 0;
  requested_ = 0;
  pop_outer_ = 0;
  decode_outer_ = 0;
  degree_outer_ = 0;
  pointer_lines_issued_ = 0;
  inflight_refills_.clear();
  // The front starts at the first non-empty outer unit.
  while (popped_ < total_entries_ && ptr_[pop_outer_ + 1] <= popped_) {
    ++pop_outer_;
  }
}

void SparseMatrixQueue::attach_csr(const CsrMatrix& matrix,
                                   TrafficClass cls) {
  attach_common(cls, matrix.row_ptr(), matrix.col_idx(), matrix.values());
}

void SparseMatrixQueue::attach_csc(const CscMatrix& matrix,
                                   TrafficClass cls) {
  attach_common(cls, matrix.col_ptr(), matrix.row_idx(), matrix.values());
}

SmqEntry SparseMatrixQueue::front() const {
  HYMM_DCHECK(has_ready());
  SmqEntry entry;
  entry.outer = pop_outer_;
  entry.inner = inner_[popped_];
  entry.value = values_[popped_];
  entry.first_of_outer = popped_ == ptr_[pop_outer_];
  entry.last_of_outer = popped_ + 1 == ptr_[pop_outer_ + 1];
  return entry;
}

void SparseMatrixQueue::pop() {
  HYMM_DCHECK(has_ready());
  ++popped_;
  // Past the unit's last entry: move to the next non-empty unit.
  while (popped_ < total_entries_ && ptr_[pop_outer_ + 1] <= popped_) {
    ++pop_outer_;
  }
}

void SparseMatrixQueue::decode_entries(std::size_t count) {
  HYMM_DCHECK(decoded_ + count <= total_entries_);
  decoded_ += count;
  while (ptr_[decode_outer_ + 1] < decoded_) ++decode_outer_;
  // Every non-empty unit decoded to its end reports its degree (row
  // degree for CSR streams).
  while (degree_outer_ < outer_count_ &&
         ptr_[degree_outer_ + 1] <= decoded_) {
    const EdgeCount degree = ptr_[degree_outer_ + 1] - ptr_[degree_outer_];
    if (degree > 0) HYMM_OBS(obs_, observe_row_degree(degree));
    ++degree_outer_;
  }
}

void SparseMatrixQueue::tick(Cycle now) {
  tick_active_ = false;
  // 1. Arrived refills become decodable entries.
  for (const std::uint64_t tag : dram_->completions()) {
    if (tag_source(tag) != kSmqTagSource) continue;
    HYMM_DCHECK(!inflight_refills_.empty());
    HYMM_DCHECK(inflight_refills_.front().first == tag_payload(tag));
    decode_entries(inflight_refills_.front().second);
    inflight_refills_.pop_front();
    tick_active_ = true;
  }

  // 2. Issue refills while there is stream left, buffer headroom and
  //    DRAM queue space.
  while (wants_refill()) {
    const std::size_t chunk = static_cast<std::size_t>(std::min<EdgeCount>(
        entries_per_line_, total_entries_ - requested_));
    const std::uint64_t payload = next_refill_tag_++;
    dram_->issue_read(/*line_addr=*/0, cls_, make_tag(kSmqTagSource, payload),
                     now);
    HYMM_OBS(obs_, on_smq_refill());
    inflight_refills_.push_back({payload, chunk});
    requested_ += chunk;
    tick_active_ = true;

    // Pointer stream: one 64-byte pointer line accompanies every
    // kLineBytes/4 outer units; issued as deeply prefetched
    // sequential reads (they never gate decode — the 4 KB pointer
    // buffer runs far ahead of the index buffer).
    const auto pointer_lines_needed = static_cast<NodeId>(
        (static_cast<std::size_t>(decode_outer_) * kPointerBytes) /
            kLineBytes +
        1);
    while (pointer_lines_issued_ < pointer_lines_needed) {
      dram_->issue_streaming_read(cls_, now);
      ++pointer_lines_issued_;
    }
  }
}

}  // namespace hymm
