// Inverse-CDF lookup over a cumulative weight array, accelerated by a
// guide table (Chen & Asau's indexed search). The power-law generator
// draws two weighted node ids per sampled pair, so this lookup is its
// hot loop.
//
// The table splits [0, total) into one equal-width bucket per entry
// and records, for each bucket boundary, the upper_bound of that
// boundary in the cumulative array. A value inside a bucket can only
// map to an index between its two boundaries' upper bounds, so a
// lookup binary-searches that short range instead of the whole array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace hymm {

class GuideTable {
 public:
  // cumulative must be non-empty and non-decreasing with a positive
  // last element (the total weight).
  explicit GuideTable(std::vector<double> cumulative)
      : cumulative_(std::move(cumulative)) {
    HYMM_CHECK(!cumulative_.empty());
    HYMM_CHECK(cumulative_.back() > 0.0);
    const std::size_t buckets = cumulative_.size();
    const double total = cumulative_.back();
    scale_ = static_cast<double>(buckets) / total;
    edge_.resize(buckets + 1);
    guide_.resize(buckets + 1);
    std::size_t i = 0;
    for (std::size_t b = 0; b <= buckets; ++b) {
      edge_[b] = total * static_cast<double>(b) /
                 static_cast<double>(buckets);
      while (i < cumulative_.size() && cumulative_[i] <= edge_[b]) ++i;
      guide_[b] = i;
    }
    // Widen the outer buckets so values below 0 or at/above the total
    // still land in a range that contains their answer.
    guide_.front() = 0;
    guide_.back() = cumulative_.size();
  }

  double total() const { return cumulative_.back(); }

  // Exactly min(upper_bound(cumulative, u) - begin, size - 1).
  std::size_t index_of(double u) const {
    const std::size_t last_bucket = edge_.size() - 2;
    const double x = u * scale_;
    std::size_t b = 0;
    if (x >= static_cast<double>(last_bucket)) {
      b = last_bucket;
    } else if (x > 0.0) {
      b = static_cast<std::size_t>(x);
    }
    // Rounding in u * scale_ can miss by one bucket; nudge until
    // edge_[b] <= u < edge_[b + 1] (or an outer bucket is reached).
    while (b > 0 && u < edge_[b]) --b;
    while (b < last_bucket && u >= edge_[b + 1]) ++b;
    const auto first = cumulative_.begin();
    const auto it = std::upper_bound(first + static_cast<std::ptrdiff_t>(
                                                 guide_[b]),
                                     first + static_cast<std::ptrdiff_t>(
                                                 guide_[b + 1]),
                                     u);
    return std::min(static_cast<std::size_t>(it - first),
                    cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
  double scale_ = 0.0;             // buckets per unit of weight
  std::vector<double> edge_;       // bucket b covers [edge_[b], edge_[b+1])
  std::vector<std::size_t> guide_;  // upper_bound(cumulative_, edge_[b])
};

}  // namespace hymm
