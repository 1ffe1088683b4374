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
  ready_.reserve(entry_capacity_);
}

void SparseMatrixQueue::attach_common(TrafficClass cls,
                                      EdgeCount total_entries,
                                      NodeId outer_count) {
  HYMM_CHECK_MSG(finished(), "previous SMQ stream still active");
  cls_ = cls;
  total_entries_ = total_entries;
  outer_count_ = outer_count;
  decoded_ = 0;
  requested_ = 0;
  cursor_outer_ = 0;
  cursor_k_ = 0;
  pointer_lines_issued_ = 0;
  ready_.clear();
  inflight_refills_.clear();
}

void SparseMatrixQueue::attach_csr(const CsrMatrix& matrix,
                                   TrafficClass cls) {
  attach_common(cls, matrix.nnz(), matrix.rows());
  csr_ = &matrix;
  csc_ = nullptr;
}

void SparseMatrixQueue::attach_csc(const CscMatrix& matrix,
                                   TrafficClass cls) {
  attach_common(cls, matrix.nnz(), matrix.cols());
  csc_ = &matrix;
  csr_ = nullptr;
}

bool SparseMatrixQueue::finished() const {
  return decoded_ == total_entries_ && ready_.empty();
}

const SmqEntry& SparseMatrixQueue::front() const {
  HYMM_DCHECK(has_ready());
  return ready_.front();
}

void SparseMatrixQueue::pop() {
  HYMM_DCHECK(has_ready());
  ready_.pop_front();
}

SmqEntry SparseMatrixQueue::next_entry() {
  SmqEntry entry;
  for (;;) {
    const EdgeCount outer_nnz = csr_ != nullptr
                                    ? csr_->row_nnz(cursor_outer_)
                                    : csc_->col_nnz(cursor_outer_);
    if (cursor_k_ < outer_nnz) break;
    ++cursor_outer_;
    cursor_k_ = 0;
    HYMM_DCHECK(cursor_outer_ < outer_count_);
  }
  entry.outer = cursor_outer_;
  if (csr_ != nullptr) {
    entry.inner = csr_->row_cols(cursor_outer_)[cursor_k_];
    entry.value = csr_->row_values(cursor_outer_)[cursor_k_];
    entry.last_of_outer = cursor_k_ + 1 == csr_->row_nnz(cursor_outer_);
  } else {
    entry.inner = csc_->col_rows(cursor_outer_)[cursor_k_];
    entry.value = csc_->col_values(cursor_outer_)[cursor_k_];
    entry.last_of_outer = cursor_k_ + 1 == csc_->col_nnz(cursor_outer_);
  }
  entry.first_of_outer = cursor_k_ == 0;
  if (entry.last_of_outer) {
    // cursor_k_ is the 0-based index of the unit's final non-zero, so
    // + 1 is the outer unit's degree (row degree for CSR streams).
    HYMM_OBS(obs_, observe_row_degree(cursor_k_ + 1));
  }
  ++cursor_k_;
  return entry;
}

void SparseMatrixQueue::decode_entries(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    HYMM_DCHECK(decoded_ < total_entries_);
    ready_.push_back(next_entry());
    ++decoded_;
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
  while (requested_ < total_entries_) {
    const std::size_t outstanding =
        ready_.size() + static_cast<std::size_t>(requested_ - decoded_);
    if (outstanding + entries_per_line_ > entry_capacity_) break;
    if (!dram_->can_accept_read()) break;
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
    const auto outer_seen = cursor_outer_;
    const auto pointer_lines_needed = static_cast<NodeId>(
        (static_cast<std::size_t>(outer_seen) * kPointerBytes) / kLineBytes +
        1);
    while (pointer_lines_issued_ < pointer_lines_needed) {
      dram_->issue_streaming_read(cls_, now);
      ++pointer_lines_issued_;
    }
  }
}

}  // namespace hymm
