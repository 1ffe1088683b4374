#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace hymm {

std::vector<std::uint64_t> pow2_bounds(std::uint64_t lo, std::uint64_t hi) {
  HYMM_CHECK(lo > 0);
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = lo; b <= hi; b *= 2) {
    bounds.push_back(b);
    if (b > hi / 2) break;  // the next doubling would pass hi (or wrap)
  }
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  HYMM_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be increasing");
  bool doubling = !bounds_.empty() && std::has_single_bit(bounds_[0]);
  for (std::size_t i = 1; doubling && i < bounds_.size(); ++i) {
    doubling = bounds_[i] == 2 * bounds_[i - 1];
  }
  if (doubling) first_bit_width_ = std::bit_width(bounds_[0]) - 1;
}

void Histogram::observe(std::uint64_t sample) {
  std::size_t bucket;
  if (first_bit_width_ >= 0) {
    // bounds_[i] == 2^(first_bit_width_ + i): a sample above bounds_[0]
    // lands in the first bucket whose bound reaches it, the one of
    // exponent bit_width(sample - 1), capped at the overflow bucket.
    bucket = sample <= bounds_[0]
                 ? 0
                 : std::min<std::size_t>(
                       static_cast<std::size_t>(std::bit_width(sample - 1) -
                                                first_bit_width_),
                       bounds_.size());
  } else {
    bucket = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), sample) -
        bounds_.begin());
  }
  ++buckets_[bucket];
  ++count_;
  sum_ += sample;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(
    std::string_view name, std::vector<std::uint64_t> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.begin_object();
    w.field("value", g.value());
    w.field("max", g.max_value());
    w.end_object();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("mean", h.mean());
    w.key("upper_bounds");
    w.begin_array();
    for (const std::uint64_t b : h.upper_bounds()) w.value(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (const std::uint64_t b : h.buckets()) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace hymm
