// FIFO over a power-of-two ring buffer, for the simulator's per-cycle
// queues (DRAM in-flight reads, DMB pending hits and prefetches, LSQ
// stores and forwarding window, SMQ decode buffer, engine windows).
// push_back and pop_front are an index add and a mask; the buffer
// doubles (keeping FIFO order) when full and never shrinks, so a queue
// with a bounded depth stops allocating after warm-up. std::deque
// instead allocates and frees a block every few hundred elements as a
// FIFO slides through it.
//
// T must be default-constructible and copy-assignable; popped slots
// are not destroyed until overwritten or the queue dies.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace hymm {

template <typename T>
class RingQueue {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& front() {
    HYMM_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    HYMM_DCHECK(size_ > 0);
    return slots_[head_];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow(size_ == 0 ? 16 : size_ * 2);
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    HYMM_DCHECK(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  // Sizes the buffer for `n` elements up front.
  void reserve(std::size_t n) {
    std::size_t capacity = 16;
    while (capacity < n) capacity *= 2;
    if (capacity > slots_.size()) grow(capacity);
  }

 private:
  void grow(std::size_t capacity) {
    std::vector<T> next(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hymm
