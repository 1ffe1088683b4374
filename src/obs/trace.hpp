/// @file
/// Cycle-domain trace emitter: buffers simulator events and
/// serializes them as Chrome trace-event JSON, the format Perfetto
/// (https://ui.perfetto.dev) and chrome://tracing open directly. One
/// simulated cycle maps to one microsecond of trace time, so cycle
/// numbers read directly off the Perfetto ruler.
///
/// Event kinds used:
///   "X" complete events — phase / region sub-phase durations
///   "C" counter events  — occupancy, stall and PE-lane tracks. A
///                         counter holds its value until the track's
///                         next sample, so callers write a sample only
///                         when the value changes. A sample carries one
///                         integer or one floating-point series, or
///                         several integer series in one `args` object
///                         (multi_counter)
///   "i" instant events  — point occurrences (partial spills,
///                         evictions)
///   "M" metadata events — process/thread naming (one process per
///                         simulated run, so several runs share a file)
///
/// Every name (track, series, event or process name) is interned once
/// in a string table the writer owns; a buffered event is a 32-byte
/// record of ids and numbers that holds no heap memory; the values of
/// a multi-series sample live in one flat pool the writer owns. Hot
/// callers intern their fixed names (and series sets) up front and
/// pass the ids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace hymm {

/// Buffers trace events during simulation and writes one Chrome
/// trace-event JSON document at the end.
class TraceWriter {
 public:
  /// Index of a string in the writer's string table.
  using NameId = std::uint32_t;
  /// Index of an ordered list of series names (series_set).
  using SeriesSetId = std::uint32_t;

  /// Instant events beyond this many are dropped (a long run can evict
  /// millions of times; the trace stays openable). The drop count is
  /// recorded in the emitted metadata.
  static constexpr std::size_t kMaxInstantEvents = 1 << 18;

  /// write() formats into one buffer of this many bytes and hands it
  /// to the stream whenever the next piece would not fit; a single
  /// piece (an escaped name) longer than the buffer is written
  /// straight through.
  static constexpr std::size_t kWriteBufferBytes = 1 << 20;

  /// Id of `s` in the string table, adding it on first use. Ids stay
  /// valid for the writer's lifetime; the empty string is always id 0.
  NameId intern(std::string_view s);

  /// Id of the ordered series names `series`, for multi_counter. Each
  /// call adds a set; callers build one per track and keep the id.
  SeriesSetId series_set(std::span<const NameId> series);

  /// Names a process group; subsequent events carry `pid`.
  void set_process_name(int pid, std::string_view name);
  /// Names a thread within process group `pid`.
  void set_thread_name(int pid, int tid, std::string_view name);

  /// Duration ("X") event spanning [begin, end] cycles.
  void duration(int pid, int tid, NameId name, Cycle begin, Cycle end);

  /// Counter ("C") sample: one series point on track `track`. An empty
  /// series emits no `args`.
  void counter(int pid, NameId track, NameId series, Cycle ts,
               std::uint64_t value) {
    events_.push_back(Event{ts, value, track, series, pid, 0, 'C'});
  }
  /// Counter ("C") sample with a floating-point value, written in the
  /// shortest form that reads back to the same double. `value` must be
  /// finite (JSON has no NaN or infinity).
  void real_counter(int pid, NameId track, NameId series, Cycle ts,
                    double value);
  /// Counter ("C") sample of several series in one event: `values[i]`
  /// is written under the i-th name of `set`. Counts as one event.
  void multi_counter(int pid, NameId track, SeriesSetId set, Cycle ts,
                     std::span<const std::uint64_t> values);

  /// Instant ("i") event.
  void instant(int pid, NameId name, Cycle ts);

  /// Number of buffered events (metadata excluded).
  std::size_t event_count() const { return events_.size(); }
  /// Instant events discarded past kMaxInstantEvents.
  std::size_t dropped_instants() const { return dropped_instants_; }

  /// Serializes {"traceEvents": [...]} with events stable-sorted by
  /// timestamp (metadata first), so `ts` is monotonically ordered.
  void write(std::ostream& out) const;

 private:
  // `ph` is the emitted phase, except that the two counter variants
  // are tagged 'R' (real value) and 'S' (multi-series) and written as
  // "C".
  struct Event {
    Cycle ts;            ///< unused for M
    std::uint64_t word;  ///< X: dur; C: value; R: double bits;
                         ///< S: offset into series_values_;
                         ///< M: argument string id
    NameId name;
    NameId arg;  ///< C, R: series (id 0: no args); S: series set;
                 ///< M: argument key
    int pid;
    std::int16_t tid;  ///< range-checked where a caller supplies it
    char ph;
  };
  static_assert(sizeof(Event) == 32);
  static_assert(std::is_trivially_copyable_v<Event>);

  static std::int16_t narrow_tid(int tid);

  std::vector<std::string> strings_{""};  // indexed by NameId
  std::unordered_map<std::string, NameId> ids_{{"", 0}};
  std::vector<std::vector<NameId>> series_sets_;  // indexed by SeriesSetId
  std::vector<Event> events_;
  std::vector<std::uint64_t> series_values_;  // S events' values
  std::vector<Event> metadata_;
  std::size_t instant_count_ = 0;
  std::size_t dropped_instants_ = 0;
};

}  // namespace hymm
