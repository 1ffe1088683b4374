/// @file
/// Metrics registry: named counters, gauges and
/// fixed-bucket histograms that hardware component models update
/// through cheap macro-guarded hook points (see obs/hooks.hpp). The
/// registry is attribution-oriented — it answers "how many / how deep
/// / how big" questions the aggregate SimStats counters cannot, and
/// serializes into the JSON run report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace hymm {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }  ///< increment
  std::uint64_t value() const { return value_; }  ///< current count

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value plus the running maximum (high-water mark).
class Gauge {
 public:
  /// Records `v` and updates the high-water mark.
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  std::int64_t value() const { return value_; }  ///< last written value
  std::int64_t max_value() const { return max_; }  ///< high-water mark

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// The bounds lo, 2 lo, 4 lo, ... up to and including the last one not
/// above `hi`. With `lo` a power of two they take Histogram's
/// bit-width fast path.
std::vector<std::uint64_t> pow2_bounds(std::uint64_t lo, std::uint64_t hi);

/// Fixed-bucket histogram over unsigned samples. `upper_bounds` are
/// inclusive bucket upper edges in increasing order; an implicit
/// overflow bucket catches everything above the last bound.
class Histogram {
 public:
  /// Fixes the bucket edges for the histogram's lifetime.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void observe(std::uint64_t sample);  ///< records one sample

  /// True when the bounds double from a power of two (pow2_bounds), so
  /// observe() picks the bucket from the sample's bit width instead of
  /// searching the bounds.
  bool doubling() const { return first_bit_width_ >= 0; }

  std::uint64_t count() const { return count_; }  ///< samples observed
  std::uint64_t sum() const { return sum_; }  ///< sum of all samples
  double mean() const;  ///< sum / count, 0 when empty
  /// Inclusive bucket upper edges, as configured.
  const std::vector<std::uint64_t>& upper_bounds() const { return bounds_; }
  /// buckets().size() == upper_bounds().size() + 1 (overflow last).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  // bit_width(bounds_[0]) - 1 when the bounds double from a power of
  // two, else -1.
  int first_bit_width_ = -1;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Name-indexed instrument store. Handles returned by the accessors
/// stay valid for the registry's lifetime (node-based map), so hot
/// paths cache the pointer once and pay a bare increment per event.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);  ///< get-or-create by name
  Gauge& gauge(std::string_view name);      ///< get-or-create by name
  /// Creates the histogram on first use; later calls with the same
  /// name return the existing instance (bounds are fixed at creation).
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> upper_bounds);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(std::string_view name) const;
  /// Lookup without creating; nullptr when absent.
  const Gauge* find_gauge(std::string_view name) const;
  /// Lookup without creating; nullptr when absent.
  const Histogram* find_histogram(std::string_view name) const;

  /// True when no instrument has been created.
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Nested {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// object (keys sorted — std::map iteration order).
  void write_json(JsonWriter& w) const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace hymm
