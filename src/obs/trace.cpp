#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace hymm {

namespace {

// Accumulates the serialized document in memory and hands it to the
// stream in large writes.
class ChunkedOut {
 public:
  explicit ChunkedOut(std::ostream& out) : out_(out) {
    buf_.reserve(kFlushBytes + 4096);
  }

  void put(std::string_view s) { buf_.append(s); }
  void put(char c) { buf_.push_back(c); }

  // Integers in decimal; doubles in the shortest form that reads back
  // to the same value.
  template <typename Number>
  void num(Number v) {
    char digits[32];
    const auto r = std::to_chars(digits, digits + sizeof digits, v);
    buf_.append(digits, r.ptr);
  }

  // Called between records, so a flush never splits one.
  void maybe_flush() {
    if (buf_.size() >= kFlushBytes) flush();
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kFlushBytes = 1 << 20;

  std::ostream& out_;
  std::string buf_;
};

}  // namespace

TraceWriter::NameId TraceWriter::intern(std::string_view s) {
  HYMM_CHECK(strings_.size() < std::numeric_limits<NameId>::max());
  const auto [it, added] =
      ids_.try_emplace(std::string(s), static_cast<NameId>(strings_.size()));
  if (added) strings_.emplace_back(s);
  return it->second;
}

std::int16_t TraceWriter::narrow_tid(int tid) {
  HYMM_CHECK_MSG(tid >= std::numeric_limits<std::int16_t>::min() &&
                     tid <= std::numeric_limits<std::int16_t>::max(),
                 "trace tid " << tid << " does not fit 16 bits");
  return static_cast<std::int16_t>(tid);
}

TraceWriter::SeriesSetId TraceWriter::series_set(
    std::span<const NameId> series) {
  HYMM_CHECK(series_sets_.size() < std::numeric_limits<SeriesSetId>::max());
  HYMM_CHECK(!series.empty());
  for (const NameId id : series) HYMM_CHECK(id < strings_.size());
  series_sets_.emplace_back(series.begin(), series.end());
  return static_cast<SeriesSetId>(series_sets_.size() - 1);
}

void TraceWriter::set_process_name(int pid, std::string_view name) {
  metadata_.push_back(Event{0, intern(name), intern("process_name"),
                            intern("name"), pid, 0, 'M'});
}

void TraceWriter::set_thread_name(int pid, int tid, std::string_view name) {
  metadata_.push_back(Event{0, intern(name), intern("thread_name"),
                            intern("name"), pid, narrow_tid(tid), 'M'});
}

void TraceWriter::duration(int pid, int tid, NameId name, Cycle begin,
                           Cycle end) {
  HYMM_DCHECK(end >= begin);
  events_.push_back(
      Event{begin, end - begin, name, 0, pid, narrow_tid(tid), 'X'});
}

void TraceWriter::real_counter(int pid, NameId track, NameId series,
                               Cycle ts, double value) {
  HYMM_CHECK_MSG(std::isfinite(value),
                 "trace counter value " << value << " is not finite");
  events_.push_back(Event{ts, std::bit_cast<std::uint64_t>(value), track,
                          series, pid, 0, 'R'});
}

void TraceWriter::multi_counter(int pid, NameId track, SeriesSetId set,
                                Cycle ts,
                                std::span<const std::uint64_t> values) {
  HYMM_CHECK(set < series_sets_.size());
  HYMM_CHECK(values.size() == series_sets_[set].size());
  events_.push_back(
      Event{ts, series_values_.size(), track, set, pid, 0, 'S'});
  series_values_.insert(series_values_.end(), values.begin(), values.end());
}

void TraceWriter::instant(int pid, NameId name, Cycle ts) {
  if (instant_count_ >= kMaxInstantEvents) {
    ++dropped_instants_;
    return;
  }
  ++instant_count_;
  events_.push_back(Event{ts, 0, name, 0, pid, 0, 'i'});
}

void TraceWriter::write(std::ostream& out) const {
  // Chrome's JSON importer tolerates any order, but downstream tools
  // (and our own acceptance test) want monotone timestamps.
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) { return a->ts < b->ts; });

  std::vector<std::string> escaped;
  escaped.reserve(strings_.size());
  for (const std::string& s : strings_) escaped.push_back(json_escape(s));

  // The same bytes JsonWriter(out, /*pretty=*/false) produces, except
  // that doubles take their shortest round-trip form, not %.17g.
  ChunkedOut o(out);
  bool first = true;
  const auto emit = [&](const Event& e) {
    HYMM_DCHECK(e.name < escaped.size() &&
                (e.ph == 'S' || e.arg < escaped.size()));
    o.put(first ? "{\"name\":\"" : ",{\"name\":\"");
    first = false;
    o.put(escaped[e.name]);
    o.put("\",\"ph\":\"");
    o.put(e.ph == 'R' || e.ph == 'S' ? 'C' : e.ph);
    o.put("\",\"pid\":");
    o.num(e.pid);
    o.put(",\"tid\":");
    o.num(e.tid);
    if (e.ph != 'M') {
      o.put(",\"ts\":");
      o.num(e.ts);
    }
    if (e.ph == 'X') {
      o.put(",\"dur\":");
      o.num(e.word);
    }
    if (e.ph == 'i') o.put(",\"s\":\"t\"");  // thread-scoped instant
    if (e.ph == 'S') {
      const std::vector<NameId>& series = series_sets_[e.arg];
      const std::uint64_t* value = series_values_.data() + e.word;
      char sep = '{';
      o.put(",\"args\":");
      for (const NameId key : series) {
        o.put(sep);
        sep = ',';
        o.put('"');
        o.put(escaped[key]);
        o.put("\":");
        o.num(*value++);
      }
      o.put('}');
    } else if (e.arg != 0) {
      o.put(",\"args\":{\"");
      o.put(escaped[e.arg]);
      o.put("\":");
      if (e.ph == 'M') {
        o.put('"');
        o.put(escaped[e.word]);
        o.put('"');
      } else if (e.ph == 'R') {
        o.num(std::bit_cast<double>(e.word));
      } else {
        o.num(e.word);
      }
      o.put('}');
    }
    o.put('}');
    o.maybe_flush();
  };
  o.put("{\"traceEvents\":[");
  for (const Event& e : metadata_) emit(e);
  for (const Event* e : ordered) emit(*e);
  o.put("],\"displayTimeUnit\":\"ms\"");
  if (dropped_instants_ > 0) {
    o.put(",\"droppedInstantEvents\":");
    o.num(dropped_instants_);
  }
  o.put("}\n");
  o.flush();
}

}  // namespace hymm
