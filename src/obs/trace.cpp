#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <system_error>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace hymm {

namespace {

// Formats the serialized document into one fixed buffer and hands it
// to the stream in large writes. A piece that does not fit flushes the
// buffer first; a piece larger than the whole buffer goes straight
// through.
class ChunkedOut {
 public:
  explicit ChunkedOut(std::ostream& out)
      : out_(out), buf_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {}

  void put(std::string_view s) {
    if (s.size() > kBufferBytes - used_) {
      flush();
      if (s.size() > kBufferBytes) {
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    std::memcpy(buf_.get() + used_, s.data(), s.size());
    used_ += s.size();
  }
  void put(char c) {
    if (used_ == kBufferBytes) flush();
    buf_[used_++] = c;
  }

  // Integers in decimal; doubles in the shortest form that reads back
  // to the same value.
  template <typename Number>
  void num(Number v) {
    if (kBufferBytes - used_ < kMaxNumberChars) flush();
    char* const end = buf_.get() + kBufferBytes;
    const auto r = std::to_chars(buf_.get() + used_, end, v);
    HYMM_DCHECK(r.ec == std::errc{});
    used_ = static_cast<std::size_t>(r.ptr - buf_.get());
  }

  void flush() {
    out_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kBufferBytes = TraceWriter::kWriteBufferBytes;
  // Longest to_chars output of any number written: a shortest-form
  // double such as -2.2250738585072014e-308 takes 24 characters.
  static constexpr std::size_t kMaxNumberChars = 32;

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
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
  // (and our own acceptance test) want monotone timestamps. Events
  // arrive in long runs of rising ts (the clock restarts at each layer
  // and a span is added when it ends), so merging adjacent runs
  // pairwise sorts them stably in O(events x log runs).
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  std::vector<std::size_t> runs{0};  // run boundaries in `ordered`
  for (const Event& e : events_) {
    if (!ordered.empty() && e.ts < ordered.back()->ts) {
      runs.push_back(ordered.size());
    }
    ordered.push_back(&e);
  }
  runs.push_back(ordered.size());
  const auto by_ts = [](const Event* a, const Event* b) {
    return a->ts < b->ts;
  };
  while (runs.size() > 2) {
    std::size_t kept = 1;
    for (std::size_t r = 0; r + 2 < runs.size(); r += 2) {
      std::inplace_merge(ordered.begin() + runs[r],
                         ordered.begin() + runs[r + 1],
                         ordered.begin() + runs[r + 2], by_ts);
      runs[kept++] = runs[r + 2];
    }
    if (runs.size() % 2 == 0) runs[kept++] = runs.back();  // odd run out
    runs.resize(kept);
  }

  std::vector<std::string> escaped;
  escaped.reserve(strings_.size());
  for (const std::string& s : strings_) escaped.push_back(json_escape(s));
  // Each series set's keys as written, with their quotes, colon and
  // leading separator: {"00": then ,"01": and so on.
  std::vector<std::vector<std::string>> set_keys;
  set_keys.reserve(series_sets_.size());
  for (const std::vector<NameId>& set : series_sets_) {
    std::vector<std::string>& keys = set_keys.emplace_back();
    for (const NameId key : set) {
      keys.push_back((keys.empty() ? "{\"" : ",\"") + escaped[key] + "\":");
    }
  }

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
      const std::uint64_t* value = series_values_.data() + e.word;
      o.put(",\"args\":");
      for (const std::string& key : set_keys[e.arg]) {
        o.put(key);
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
