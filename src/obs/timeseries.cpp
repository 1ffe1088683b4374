#include "obs/timeseries.hpp"

#include <utility>

#include "common/check.hpp"

namespace hymm {

TimeSeries::TimeSeries(Cycle interval, std::size_t capacity)
    : initial_interval_(interval), interval_(interval), capacity_(capacity) {
  HYMM_CHECK(interval > 0);
  HYMM_CHECK(capacity >= 2);
  samples_.reserve(capacity);
}

void TimeSeries::record(const TimeSeriesSample& s) {
  HYMM_DCHECK(s.cycle >= next_due_);
  append(s);
}

void TimeSeries::record_forced(const TimeSeriesSample& s) {
  if (has_last_ && s.cycle == last_cycle_) return;
  append(s);
}

void TimeSeries::append(const TimeSeriesSample& s) {
  HYMM_DCHECK(!has_last_ || s.cycle > last_cycle_);
  samples_.push_back(s);
  has_last_ = true;
  last_cycle_ = s.cycle;
  next_due_ = s.cycle + interval_;
  if (samples_.size() >= capacity_) {
    // Thin to every other sample and halve the rate — deterministic
    // in the record sequence, so fast-forward replay stays
    // bit-identical.
    std::size_t out = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) {
      samples_[out++] = samples_[i];
    }
    samples_.resize(out);
    interval_ *= 2;
  }
}

TimeSeriesData TimeSeries::take() {
  TimeSeriesData data;
  data.interval = interval_;
  data.samples = std::move(samples_);
  reset();
  return data;
}

void TimeSeries::reset() {
  samples_.clear();
  interval_ = initial_interval_;
  next_due_ = 0;
  has_last_ = false;
  last_cycle_ = 0;
}

}  // namespace hymm
