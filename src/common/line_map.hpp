// Direct-indexed table keyed by 64-byte line address, for the
// simulator's per-cycle line directories (DMB resident lines and
// in-flight prefetches, the LSQ's forwarding window and parked-load
// lines). A lookup is line / kLineBytes split into a page number and
// an offset: one directory load, one presence-bit test and the value —
// no hashing and no probe chain.
//
// Pages of kPageLines lines are allocated on first insert into them,
// so memory follows the touched address range, not the address space:
// a region nothing inserts into (the partial-spill heap, which only
// DRAM sees) costs one 4-byte directory slot per page-sized stretch.
// Pages stay allocated until clear().
//
// Scope is deliberately narrow:
//  - keys are line-aligned Addr values (HYMM_DCHECKed),
//  - T must be default-constructible and copy-assignable,
//  - find() returns T* (nullptr when absent); a pointer is valid until
//    the next insert into the same map,
//  - no insert inside for_each (erase of the visited line is fine).
//
// for_each visits entries in ascending address order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace hymm {

template <typename T>
class LineMap {
 public:
  static constexpr std::size_t kPageLines = 1024;

  std::size_t size() const { return size_; }

  T* find(Addr line) {
    const std::uint64_t index = index_of(line);
    Page* page = page_of(index / kPageLines);
    const std::size_t offset = index % kPageLines;
    return page != nullptr && page->has(offset) ? &page->values[offset]
                                                : nullptr;
  }
  const T* find(Addr line) const {
    return const_cast<LineMap*>(this)->find(line);
  }
  bool contains(Addr line) const { return find(line) != nullptr; }

  T& at(Addr line) {
    T* v = find(line);
    HYMM_DCHECK(v != nullptr);
    return *v;
  }

  // Inserts line -> value; overwrites an existing mapping.
  T& emplace(Addr line, T value) {
    T& slot = slot_for(line);
    slot = value;
    return slot;
  }

  // Default-constructs the mapping when absent (counter-map idiom).
  T& operator[](Addr line) {
    if (T* v = find(line)) return *v;
    return emplace(line, T{});
  }

  // Returns true when the line was present.
  bool erase(Addr line) {
    const std::uint64_t index = index_of(line);
    Page* page = page_of(index / kPageLines);
    const std::size_t offset = index % kPageLines;
    if (page == nullptr || !page->has(offset)) return false;
    page->used[offset / 64] &= ~bit(offset);
    --size_;
    return true;
  }

  // Drops every entry and page.
  void clear() {
    directory_.clear();
    pages_.clear();
    size_ = 0;
  }

  // Visits every entry as f(line, T&) in ascending address order.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t p = 0; p < directory_.size(); ++p) {
      if (directory_[p] == kNoPage) continue;
      Page& page = pages_[directory_[p]];
      for (std::size_t offset = 0; offset < kPageLines; ++offset) {
        if (!page.has(offset)) continue;
        f(static_cast<Addr>((p * kPageLines + offset) * kLineBytes),
          page.values[offset]);
      }
    }
  }

 private:
  static constexpr std::uint32_t kNoPage = 0xffffffffu;

  struct Page {
    std::array<T, kPageLines> values{};
    std::array<std::uint64_t, kPageLines / 64> used{};

    bool has(std::size_t offset) const {
      return (used[offset / 64] & bit(offset)) != 0;
    }
  };

  static std::uint64_t bit(std::size_t offset) {
    return std::uint64_t{1} << (offset % 64);
  }

  static std::uint64_t index_of(Addr line) {
    HYMM_DCHECK(line % kLineBytes == 0);
    return line / kLineBytes;
  }

  Page* page_of(std::uint64_t p) {
    if (p >= directory_.size() || directory_[p] == kNoPage) return nullptr;
    return &pages_[directory_[p]];
  }

  T& slot_for(Addr line) {
    const std::uint64_t index = index_of(line);
    const std::uint64_t p = index / kPageLines;
    if (p >= directory_.size()) directory_.resize(p + 1, kNoPage);
    if (directory_[p] == kNoPage) {
      HYMM_CHECK(pages_.size() < kNoPage);
      directory_[p] = static_cast<std::uint32_t>(pages_.size());
      pages_.emplace_back();
    }
    Page& page = pages_[directory_[p]];
    const std::size_t offset = index % kPageLines;
    if (!page.has(offset)) {
      page.used[offset / 64] |= bit(offset);
      ++size_;
    }
    return page.values[offset];
  }

  // Page number -> index into pages_, kNoPage when untouched.
  std::vector<std::uint32_t> directory_;
  std::vector<Page> pages_;
  std::size_t size_ = 0;
};

}  // namespace hymm
