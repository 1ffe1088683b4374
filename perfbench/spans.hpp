/// @file
/// Host-time spans the benchmark records around its own calls into
/// the library's layers (graph, linalg, core, sim, obs, sweep). The
/// program itself is not instrumented: every span starts and ends in
/// benchmark code. Spans are kept in memory and written out once, when
/// the run ends.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed call. `run` groups the spans of one workload iteration
/// (-1 = set-up); `parent` indexes the enclosing span (-1 = none).
struct Span {
  std::string name;
  int run = -1;
  int parent = -1;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  double seconds() const { return end_s - start_s; }
};

/// Times calls; records them as spans only when enabled, so the
/// untraced runs pay for nothing but two clock reads per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Tags the spans that follow with workload iteration `run`.
  void set_run(int run) { run_ = run; }

  /// Runs `body`, records it as span `name` when enabled (nested
  /// time() calls inside `body` become its children) and returns its
  /// host seconds.
  template <class Body>
  double time(std::string_view name, Body&& body) {
    const int parent = open_;
    int index = -1;
    if (enabled_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(Span{std::string(name), run_, parent, now(), 0.0});
      open_ = index;
    }
    const Clock::time_point start = Clock::now();
    body();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (enabled_) {
      spans_[static_cast<std::size_t>(index)].end_s = now();
      open_ = parent;
    }
    return seconds;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed seconds of every span called `name` in iteration `run`.
  double total(std::string_view name, int run) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && s.run == run) sum += s.seconds();
    }
    return sum;
  }

  /// Span `i` minus the time its children cover. The harness is
  /// single-threaded, so children never overlap and their durations
  /// add.
  double self_seconds(std::size_t i) const {
    double self = spans_[i].seconds();
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(i)) self -= s.seconds();
    }
    return self;
  }

  /// Writes every span as one JSON document (name, run, parent,
  /// start, end, self seconds).
  void write_json(std::ostream& out) const {
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
          << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
          << ", \"self_s\": " << self_seconds(i) << "}";
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int run_ = -1;
  int open_ = -1;
};

}  // namespace perfbench
