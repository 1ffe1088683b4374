// Observability layer tests: JSON utilities, metrics registry, trace
// emitter, and the acceptance properties of a traced simulation —
// valid JSON, monotone timestamps, the expected duration events and
// counter tracks, and bit-identical cycle counts with tracing on/off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/stall.hpp"
#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "linalg/gcn.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace hymm {
namespace {

// --- JSON utilities ---

TEST(Json, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(Json, ValidatorAcceptsWellFormedDocuments) {
  EXPECT_TRUE(json_is_valid("{}"));
  EXPECT_TRUE(json_is_valid("[1, 2.5, -3e4, \"s\", true, false, null]"));
  EXPECT_TRUE(json_is_valid("{\"a\": {\"b\": [{}]}, \"c\": \"\\u00e9\"}"));
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(json_is_valid(""));
  EXPECT_FALSE(json_is_valid("{"));
  EXPECT_FALSE(json_is_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_is_valid("[1 2]"));
  EXPECT_FALSE(json_is_valid("{} trailing"));
  EXPECT_FALSE(json_is_valid("\"unterminated"));
  EXPECT_FALSE(json_is_valid("01"));
  EXPECT_FALSE(json_is_valid("nan"));
}

// Both readers recurse once per container, so nesting is capped at
// kJsonMaxDepth: a document exactly at the cap still reads, one level
// more and a 100,000-deep run of openers are rejected, never a crash.
TEST(Json, NestingBeyondTheCapIsRejectedCleanly) {
  const auto nested = [](std::size_t depth, const std::string& open,
                         const std::string& close) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += open;
    doc += "0";
    for (std::size_t i = 0; i < depth; ++i) doc += close;
    return doc;
  };
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"[", "]"}, {"{\"a\":", "}"}};
  for (const auto& [open, close] : shapes) {
    const std::string at_cap = nested(kJsonMaxDepth, open, close);
    EXPECT_TRUE(json_is_valid(at_cap)) << open;
    const std::optional<JsonValue> parsed = json_parse(at_cap);
    ASSERT_TRUE(parsed.has_value()) << open;
    std::size_t depth = 0;
    for (const JsonValue* v = &*parsed; v->is_array() || v->is_object();
         ++depth) {
      v = v->is_array() ? &v->array_items.front()
                        : &v->object_members.front().second;
    }
    EXPECT_EQ(depth, kJsonMaxDepth) << open;

    const std::string over = nested(kJsonMaxDepth + 1, open, close);
    EXPECT_FALSE(json_is_valid(over)) << open;
    EXPECT_FALSE(json_parse(over).has_value()) << open;

    std::string deep;
    for (int i = 0; i < 100'000; ++i) deep += open;
    EXPECT_FALSE(json_is_valid(deep)) << open;
    EXPECT_FALSE(json_parse(deep).has_value()) << open;
  }
}

TEST(Json, WriterProducesValidNestedDocument) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("str", "va\"lue");
  w.field("num", std::uint64_t{18446744073709551615ull});
  w.field("neg", std::int64_t{-5});
  w.field("flag", true);
  w.key("arr");
  w.begin_array();
  w.value(1.5);
  w.null();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(json_is_valid(out.str())) << out.str();
  EXPECT_NE(out.str().find("18446744073709551615"), std::string::npos);
}

TEST(Json, WriterEmitsNullForNonFiniteNumbers) {
  std::ostringstream out;
  JsonWriter w(out, /*pretty=*/false);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

// --- JSON parser ---

TEST(JsonParse, ParsesScalarsAndStructure) {
  const auto doc = json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "n": -3e2})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->get_number("a"), 1.5);
  EXPECT_DOUBLE_EQ(doc->get_number("n"), -300.0);
  EXPECT_EQ(doc->get_string("s"), "x\ny");
  const JsonValue* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array_items.size(), 3u);
  EXPECT_TRUE(b->array_items[0].bool_value);
  EXPECT_FALSE(b->array_items[1].bool_value);
  EXPECT_EQ(b->array_items[2].kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, PreservesMemberOrderAndDecodesEscapes) {
  const auto doc = json_parse(R"({"z": "Aé", "a": "\"\\/"})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object_members.size(), 2u);
  EXPECT_EQ(doc->object_members[0].first, "z");
  EXPECT_EQ(doc->object_members[1].first, "a");
  EXPECT_EQ(doc->get_string("z"), "A\xc3\xa9");  // é as UTF-8
  EXPECT_EQ(doc->get_string("a"), "\"\\/");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{} extra").has_value());
  EXPECT_FALSE(json_parse("{'single': 1}").has_value());
  EXPECT_FALSE(json_parse("[1, 2,]").has_value());
  EXPECT_FALSE(json_parse("01").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
  EXPECT_FALSE(json_parse("{\"k\": \"bad\\q\"}").has_value());
}

TEST(JsonParse, AcceptsEverythingTheValidatorAccepts) {
  const std::string doc =
      R"({"schema": "hymm-tune-cache/1", "entries": [{"threshold": 0.2}]})";
  EXPECT_TRUE(json_is_valid(doc));
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonParse, TypedAccessorsFallBackOnWrongTypeOrAbsence) {
  const auto doc = json_parse(R"({"s": "str", "n": 4})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("n", "fb"), "fb");
  EXPECT_DOUBLE_EQ(doc->get_number("s", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc->get_number("missing", 7.0), 7.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

// --- Metrics registry ---

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());

  Counter& c = reg.counter("dmb.evictions");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("dmb.evictions").value(), 5u);
  EXPECT_EQ(&reg.counter("dmb.evictions"), &c);  // stable handle

  Gauge& g = reg.gauge("lsq.depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 7);

  Histogram& h = reg.histogram("smq.row_degree", {1, 4, 16});
  h.observe(1);    // bucket 0 (inclusive upper bound)
  h.observe(2);    // bucket 1
  h.observe(16);   // bucket 2
  h.observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 119u);
  EXPECT_DOUBLE_EQ(h.mean(), 119.0 / 4.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);

  EXPECT_FALSE(reg.empty());
  EXPECT_NE(reg.find_counter("dmb.evictions"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("lsq.depth")->max_value(), 7);
  EXPECT_EQ(reg.find_histogram("smq.row_degree")->count(), 4u);
}

// The bucket std::lower_bound picks for `sample`: the first bound that
// reaches it, or the overflow bucket.
std::size_t searched_bucket(const std::vector<std::uint64_t>& bounds,
                            std::uint64_t sample) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), sample) -
      bounds.begin());
}

// Every sample observed alone must land in the searched bucket: 0,
// every bound and its neighbours, and the top of the range.
void expect_buckets_match_search(const std::vector<std::uint64_t>& bounds) {
  std::vector<std::uint64_t> samples = {0, std::uint64_t{1} << 63,
                                        std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t b : bounds) {
    samples.insert(samples.end(), {b - 1, b, b + 1});
  }
  for (const std::uint64_t sample : samples) {
    Histogram h(bounds);
    h.observe(sample);
    std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
    ++expected[searched_bucket(bounds, sample)];
    EXPECT_EQ(h.buckets(), expected) << "sample " << sample;
  }
}

// Bounds that double from a power of two take the bit-width path; it
// must agree with the search everywhere.
TEST(Metrics, DoublingBoundsPickTheSearchedBucketByBitWidth) {
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {1, 256}, {1, 4096}, {16, 65536}, {1, 1 << 20}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(std::to_string(lo) + ".." + std::to_string(hi));
    const std::vector<std::uint64_t> bounds = pow2_bounds(lo, hi);
    EXPECT_EQ(bounds.front(), lo);
    EXPECT_EQ(bounds.back(), hi);
    EXPECT_TRUE(Histogram(bounds).doubling());
    expect_buckets_match_search(bounds);
  }
}

// Bounds that do not double keep the search.
TEST(Metrics, OtherBoundsKeepTheSearch) {
  for (const std::vector<std::uint64_t>& bounds :
       {std::vector<std::uint64_t>{1, 4, 16},
        std::vector<std::uint64_t>{10, 100}}) {
    EXPECT_FALSE(Histogram(bounds).doubling());
    expect_buckets_match_search(bounds);
  }
}

TEST(Metrics, WriteJsonIsValidAndComplete) {
  MetricsRegistry reg;
  reg.counter("a.count").add(2);
  reg.gauge("b.level").set(9);
  reg.histogram("c.dist", {10, 100}).observe(42);
  std::ostringstream out;
  JsonWriter w(out);
  reg.write_json(w);
  const std::string doc = out.str();
  EXPECT_TRUE(json_is_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"a.count\""), std::string::npos);
  EXPECT_NE(doc.find("\"b.level\""), std::string::npos);
  EXPECT_NE(doc.find("\"c.dist\""), std::string::npos);
  EXPECT_NE(doc.find("\"upper_bounds\""), std::string::npos);
}

// --- Trace writer ---

// Extracts every "ts":N in serialization order (metadata events carry
// no ts, so this is exactly the sorted event stream).
std::vector<std::uint64_t> extract_timestamps(const std::string& doc) {
  std::vector<std::uint64_t> ts;
  const std::string needle = "\"ts\":";
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1)) {
    ts.push_back(std::strtoull(doc.c_str() + pos + needle.size(),
                               nullptr, 10));
  }
  return ts;
}

std::size_t count_occurrences(const std::string& doc,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(Trace, WriteSortsEventsAndEmitsValidJson) {
  TraceWriter t;
  t.set_process_name(1, "run");
  t.duration(1, 0, t.intern("late"), 500, 600);
  t.counter(1, t.intern("track"), t.intern("v"), 250, 42);
  t.instant(1, t.intern("blip"), 10);
  t.counter(1, t.intern("track"), t.intern("v"), 250, 43);
  std::ostringstream out;
  t.write(out);
  const std::string doc = out.str();
  EXPECT_TRUE(json_is_valid(doc)) << doc;
  const auto ts = extract_timestamps(doc);
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  // Metadata precedes timed events.
  EXPECT_LT(doc.find("process_name"), doc.find("\"blip\""));
  // Equal timestamps keep the order the events were added in, also
  // across runs of rising ts.
  EXPECT_LT(doc.find("\"v\":42"), doc.find("\"v\":43"));
}

TEST(Trace, InstantEventsAreCappedWithDropAccounting) {
  TraceWriter t;
  const TraceWriter::NameId e = t.intern("e");
  for (std::size_t i = 0; i < TraceWriter::kMaxInstantEvents + 10; ++i) {
    t.instant(0, e, i);
  }
  EXPECT_EQ(t.event_count(), TraceWriter::kMaxInstantEvents);
  EXPECT_EQ(t.dropped_instants(), 10u);
  std::ostringstream out;
  t.write(out);
  EXPECT_NE(out.str().find("\"droppedInstantEvents\":10"),
            std::string::npos);
}

// Names are escaped once per string-table entry at write time; every
// name position must still render exactly as json_escape does.
TEST(Trace, NamesSerializeExactlyAsJsonEscape) {
  const std::string name = std::string("q\"b\\c") + '\x01' + "\n";
  TraceWriter t;
  t.set_process_name(0, name);
  t.set_thread_name(0, 3, name);
  t.duration(0, 3, t.intern(name), 5, 9);
  t.counter(0, t.intern(name), t.intern(name), 7, 11);
  t.instant(0, t.intern(name), 8);
  std::ostringstream out;
  t.write(out);
  const std::string esc = json_escape(name);
  EXPECT_EQ(esc, "q\\\"b\\\\c\\u0001\\n");
  EXPECT_EQ(
      out.str(),
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"" + esc + "\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,"
      "\"args\":{\"name\":\"" + esc + "\"}},"
      "{\"name\":\"" + esc + "\",\"ph\":\"X\",\"pid\":0,\"tid\":3,"
      "\"ts\":5,\"dur\":4},"
      "{\"name\":\"" + esc + "\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
      "\"ts\":7,\"args\":{\"" + esc + "\":11}},"
      "{\"name\":\"" + esc + "\",\"ph\":\"i\",\"pid\":0,\"tid\":0,"
      "\"ts\":8,\"s\":\"t\"}"
      "],\"displayTimeUnit\":\"ms\"}\n");
  EXPECT_TRUE(json_is_valid(out.str()));
}

// write() formats into a fixed buffer: names longer than the whole
// buffer go straight through, and pieces that do not fit flush it
// first. Either way the bytes are exactly what json_escape and the
// event layout give.
TEST(Trace, PiecesLongerThanTheWriteBufferSerializeExactly) {
  const auto long_name = [](char salt) {
    std::string name;
    while (name.size() <= 2 * TraceWriter::kWriteBufferBytes) {
      name += salt;
      name += "\"\\\x01\n\x1f";
    }
    return name;
  };
  const std::string process = long_name('p');
  const std::string thread = long_name('t');
  TraceWriter t;
  t.set_process_name(0, process);
  t.set_thread_name(0, 1, thread);
  // Series sets whose events each span several buffer flushes.
  constexpr std::size_t kSeries = 60000;
  std::vector<TraceWriter::NameId> keys;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < kSeries; ++i) {
    std::string key = "s";
    key += std::to_string(i);
    keys.push_back(t.intern(key));
    values.push_back(std::numeric_limits<std::uint64_t>::max() - i);
  }
  const TraceWriter::SeriesSetId set = t.series_set(keys);
  const TraceWriter::NameId track = t.intern("wide");
  t.multi_counter(0, track, set, 3, values);
  t.multi_counter(0, track, set, 5, values);
  std::ostringstream out;
  t.write(out);

  std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"" +
      json_escape(process) +
      "\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"" +
      json_escape(thread) + "\"}}";
  for (const int ts : {3, 5}) {
    expected += ",{\"name\":\"wide\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
                "\"ts\":" +
                std::to_string(ts) + ",\"args\":";
    for (std::size_t i = 0; i < kSeries; ++i) {
      expected += i == 0 ? "{\"s" : ",\"s";
      expected += std::to_string(i);
      expected += "\":";
      expected += std::to_string(values[i]);
    }
    expected += "}}";
  }
  expected += "],\"displayTimeUnit\":\"ms\"}\n";
  const std::string doc = out.str();
  ASSERT_GT(doc.size(), 4 * TraceWriter::kWriteBufferBytes);
  EXPECT_TRUE(doc == expected);  // too long to print on a mismatch
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto& events = parsed->find("traceEvents")->array_items;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].find("args")->get_string("name"), process);
  EXPECT_EQ(events[1].find("args")->get_string("name"), thread);
}

TEST(Trace, CounterWithEmptySeriesEmitsNoArgs) {
  TraceWriter t;
  t.counter(2, t.intern("track"), t.intern(""), 4, 99);
  std::ostringstream out;
  t.write(out);
  EXPECT_EQ(out.str(),
            "{\"traceEvents\":[{\"name\":\"track\",\"ph\":\"C\",\"pid\":2,"
            "\"tid\":0,\"ts\":4}],\"displayTimeUnit\":\"ms\"}\n");
}

// Real-valued samples take the shortest form that reads back to the
// same double; integral values print without a fraction.
TEST(Trace, RealCounterWritesShortestRoundTripForm) {
  TraceWriter t;
  const TraceWriter::NameId track = t.intern("rate");
  const TraceWriter::NameId pct = t.intern("%");
  t.real_counter(0, track, pct, 1, 100.0 / 3.0);
  t.real_counter(0, track, pct, 2, 25.0);
  t.real_counter(0, track, pct, 3, 1e-7);
  EXPECT_THROW(t.real_counter(0, track, pct, 4, std::nan("")), CheckError);
  std::ostringstream out;
  t.write(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"ts\":1,\"args\":{\"%\":33.333333333333336}}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"ts\":2,\"args\":{\"%\":25}}"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":3,\"args\":{\"%\":1e-07}}"), std::string::npos);
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("traceEvents")
                ->array_items[0]
                .find("args")
                ->get_number("%"),
            100.0 / 3.0);
}

// A multi-series sample is one event whose args hold every series of
// its set, in set order.
TEST(Trace, MultiCounterWritesOneEventWithEverySeries) {
  TraceWriter t;
  const TraceWriter::NameId keys[] = {t.intern("00"), t.intern("01"),
                                      t.intern("02")};
  const TraceWriter::SeriesSetId lanes = t.series_set(keys);
  const std::uint64_t first[] = {0, 0, 0};
  const std::uint64_t second[] = {7, 0, 3};
  t.multi_counter(1, t.intern("PE busy"), lanes, 0, first);
  t.multi_counter(1, t.intern("PE busy"), lanes, 64, second);
  EXPECT_EQ(t.event_count(), 2u);
  const std::uint64_t short_row[] = {1, 2};
  EXPECT_THROW(t.multi_counter(1, t.intern("PE busy"), lanes, 9, short_row),
               CheckError);
  EXPECT_THROW(t.series_set({}), CheckError);
  std::ostringstream out;
  t.write(out);
  EXPECT_EQ(out.str(),
            "{\"traceEvents\":["
            "{\"name\":\"PE busy\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
            "\"ts\":0,\"args\":{\"00\":0,\"01\":0,\"02\":0}},"
            "{\"name\":\"PE busy\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
            "\"ts\":64,\"args\":{\"00\":7,\"01\":0,\"02\":3}}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

// One string-table entry serves every pid that uses it.
TEST(Trace, NameInternedOnceSerializesTheSameForEveryPid) {
  TraceWriter t;
  const TraceWriter::NameId track = t.intern("DMB occupancy");
  EXPECT_EQ(t.intern("DMB occupancy"), track);
  t.counter(0, track, t.intern("lines"), 1, 5);
  t.counter(7, track, t.intern("lines"), 2, 5);
  std::ostringstream out;
  t.write(out);
  const std::string doc = out.str();
  const std::string body =
      "{\"name\":\"DMB occupancy\",\"ph\":\"C\",\"pid\":";
  const std::string tail = ",\"tid\":0,\"ts\":";
  EXPECT_NE(doc.find(body + "0" + tail + "1,\"args\":{\"lines\":5}}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find(body + "7" + tail + "2,\"args\":{\"lines\":5}}"),
            std::string::npos)
      << doc;
}

// The buffered event packs tid narrower than int: an id it cannot
// hold must fail loudly, never wrap into another thread's track.
TEST(Trace, TidOutsidePackedRangeFailsCheck) {
  TraceWriter t;
  const TraceWriter::NameId name = t.intern("span");
  EXPECT_THROW(t.duration(0, 1 << 16, name, 0, 1), CheckError);
  EXPECT_THROW(t.duration(0, -(1 << 16), name, 0, 1), CheckError);
  EXPECT_THROW(t.set_thread_name(0, 40000, "x"), CheckError);
  EXPECT_NO_THROW(t.duration(0, 32767, name, 0, 1));
  EXPECT_NO_THROW(t.duration(0, -32768, name, 0, 1));
  EXPECT_EQ(t.event_count(), 2u);
}

// --- Traced simulation acceptance ---

struct Problem {
  CsrMatrix a_hat;
  CsrMatrix x;
  DenseMatrix w;
};

Problem make_problem(NodeId nodes, EdgeCount edges, std::uint64_t seed) {
  GraphSpec gspec;
  gspec.nodes = nodes;
  gspec.edges = edges;
  gspec.seed = seed;
  Problem p;
  p.a_hat = normalize_adjacency(generate_power_law_graph(gspec));
  FeatureSpec fspec;
  fspec.nodes = nodes;
  fspec.feature_length = 64;
  fspec.density = 0.2;
  fspec.seed = seed + 1;
  p.x = generate_features(fspec);
  p.w = DenseMatrix::random(64, 16, seed + 2);
  return p;
}

class TracedDataflows : public ::testing::TestWithParam<Dataflow> {};

// The observer must never feed back into timing: simulated cycle
// counts are bit-identical with tracing on, metrics only, or no
// observer at all.
TEST_P(TracedDataflows, CyclesIdenticalWithAndWithoutObserver) {
  const Problem p = make_problem(120, 900, 7);
  const Accelerator accelerator{AcceleratorConfig{}};

  const LayerRunResult bare =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w);

  ObserverOptions metrics_only;
  metrics_only.trace = false;
  Observer quiet(metrics_only);
  const LayerRunResult with_metrics =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w, &quiet);

  ObserverOptions tracing;
  tracing.trace = true;
  Observer loud(tracing);
  loud.begin_run("test");
  const LayerRunResult with_trace =
      accelerator.run_layer(GetParam(), p.a_hat, p.x, p.w, &loud);

  EXPECT_EQ(bare.stats.cycles, with_metrics.stats.cycles);
  EXPECT_EQ(bare.stats.cycles, with_trace.stats.cycles);
  EXPECT_EQ(bare.stats.mac_ops, with_trace.stats.mac_ops);
  EXPECT_EQ(bare.stats.dram_total_bytes(),
            with_trace.stats.dram_total_bytes());
  EXPECT_EQ(bare.combination_stats.cycles,
            with_trace.combination_stats.cycles);
  EXPECT_EQ(bare.aggregation_stats.cycles,
            with_trace.aggregation_stats.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllFlows, TracedDataflows,
                         ::testing::Values(Dataflow::kRowWiseProduct,
                                           Dataflow::kOuterProduct,
                                           Dataflow::kHybrid));

TEST(TracedRun, HybridTraceHasPhasesRegionsAndCounterTracks) {
  const Problem p = make_problem(120, 900, 7);
  const Accelerator accelerator{AcceleratorConfig{}};
  ObserverOptions oopts;
  oopts.trace = true;
  Observer obs(oopts);
  obs.begin_run("HyMM/test");
  accelerator.run_layer(Dataflow::kHybrid, p.a_hat, p.x, p.w, &obs);

  std::ostringstream out;
  obs.trace().write(out);
  const std::string doc = out.str();

  ASSERT_TRUE(json_is_valid(doc));
  // Timestamps are monotonically ordered after serialization.
  const auto ts = extract_timestamps(doc);
  ASSERT_FALSE(ts.empty());
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));

  // Phase and region duration events.
  EXPECT_NE(doc.find("\"name\":\"combination\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"aggregation\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region1 (OP)\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region2 (RWP)\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"region3 (RWP)\",\"ph\":\"X\""),
            std::string::npos);

  // At least 3 counter tracks, each with multiple samples.
  for (const char* track :
       {"\"name\":\"DMB occupancy\",\"ph\":\"C\"",
        "\"name\":\"partial bytes\",\"ph\":\"C\"",
        "\"name\":\"LSQ depth\",\"ph\":\"C\"",
        "\"name\":\"SMQ backlog\",\"ph\":\"C\""}) {
    EXPECT_GT(count_occurrences(doc, track), 1u) << track;
  }

  // The registry filled in alongside the trace.
  const Counter* macs = obs.metrics().find_counter("pe.mac_ops");
  ASSERT_NE(macs, nullptr);
  EXPECT_GT(macs->value(), 0u);
  const Histogram* degrees =
      obs.metrics().find_histogram("smq.row_degree");
  ASSERT_NE(degrees, nullptr);
  EXPECT_GT(degrees->count(), 0u);
}

TEST(TracedRun, MultipleRunsGetDistinctProcessGroups) {
  const Problem p = make_problem(60, 300, 3);
  const Accelerator accelerator{AcceleratorConfig{}};
  ObserverOptions oopts;
  oopts.trace = true;
  Observer obs(oopts);
  obs.begin_run("first");
  const int pid1 = obs.run_pid();
  accelerator.run_layer(Dataflow::kRowWiseProduct, p.a_hat, p.x, p.w, &obs);
  obs.begin_run("second");
  const int pid2 = obs.run_pid();
  accelerator.run_layer(Dataflow::kOuterProduct, p.a_hat, p.x, p.w, &obs);
  EXPECT_NE(pid1, pid2);

  std::ostringstream out;
  obs.trace().write(out);
  const std::string doc = out.str();
  ASSERT_TRUE(json_is_valid(doc));
  EXPECT_NE(doc.find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"second\""), std::string::npos);
  // ts stays monotone even with two runs interleaved in one file.
  const auto ts = extract_timestamps(doc);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
}

// With an observer attached but tracing off, the trace buffer stays
// empty (the registry is the only cost).
TEST(TracedRun, MetricsOnlyObserverBuffersNoEvents) {
  const Problem p = make_problem(60, 300, 3);
  const Accelerator accelerator{AcceleratorConfig{}};
  Observer obs;  // trace defaults to false
  accelerator.run_layer(Dataflow::kHybrid, p.a_hat, p.x, p.w, &obs);
  EXPECT_EQ(obs.trace().event_count(), 0u);
  EXPECT_FALSE(obs.metrics().empty());
}


// --- Compact counter tracks ---

// One point of a counter step function: (pid, track, series) at ts.
using StepKey = std::tuple<int, std::string, std::string>;
using StepFunctions =
    std::map<StepKey, std::vector<std::pair<double, double>>>;

// Every counter sample of a serialized trace, per (pid, track,
// series), in file order (which is ts order).
StepFunctions parse_counter_steps(const std::string& doc) {
  StepFunctions steps;
  const auto parsed = json_parse(doc);
  if (!parsed) {
    ADD_FAILURE() << "trace is not valid JSON";
    return steps;
  }
  for (const JsonValue& e : parsed->find("traceEvents")->array_items) {
    if (e.get_string("ph") != "C") continue;
    const JsonValue* args = e.find("args");
    if (args == nullptr) continue;
    for (const auto& [series, value] : args->object_members) {
      steps[{static_cast<int>(e.get_number("pid")), e.get_string("name"),
             series}]
          .emplace_back(e.get_number("ts"), value.number_value);
    }
  }
  return steps;
}

// The value a step function holds at `ts`: its last sample at or
// before `ts` (a counter holds until its next sample).
std::optional<double> value_at(
    const std::vector<std::pair<double, double>>& samples, double ts) {
  std::optional<double> value;
  for (const auto& [t, v] : samples) {
    if (t > ts) break;
    value = v;
  }
  return value;
}

// Drives an Observer with a scripted sequence of samples over two
// process groups and checks that the written trace, read back as step
// functions, holds every fed value at every sample time while
// dropping the repeats.
TEST(CompactTracks, TraceRebuildsEveryFedStepFunction) {
  ObserverOptions oopts;
  oopts.trace = true;
  oopts.spatial = true;
  Observer obs(oopts);
  constexpr std::size_t kLanes = 4;

  // Fed values, per (pid, track, series): ts -> value at that ts.
  std::map<StepKey, std::map<double, double>> fed;
  std::size_t fed_samples = 0;
  const auto feed = [&](Cycle now, std::uint64_t dmb, std::uint64_t lsq,
                        std::vector<Cycle> stalls) {
    stalls.resize(kStallCauseCount, 0);
    TimeSeriesSample s{.cycle = now, .lsq_depth = lsq, .smq_backlog = 3,
                       .dmb_lines = dmb, .partial_bytes = dmb * 64};
    std::copy(stalls.begin(), stalls.end(), s.stall_cycles.begin());
    obs.sample(s);
    const int pid = obs.run_pid();
    const auto put = [&](std::string track, std::string series, double v) {
      fed[{pid, std::move(track), std::move(series)}][now] = v;
      ++fed_samples;
    };
    put("DMB occupancy", "lines", dmb);
    put("partial bytes", "bytes", dmb * 64);
    put("LSQ depth", "entries", lsq);
    put("SMQ backlog", "entries", 3);
    for (std::size_t i = 0; i < kStallCauseCount; ++i) {
      put(std::string("stall ") +
              stall_cause_key(static_cast<StallCause>(i)),
          "cycles", stalls[i]);
    }
    const std::vector<std::uint64_t>& lanes =
        obs.spatial().data().lane_busy_cycles;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      // Two-digit lane keys "00".."15", as the trace writes them.
      const char key[] = {static_cast<char>('0' + i / 10 % 10),
                          static_cast<char>('0' + i % 10), '\0'};
      put("PE busy", key, lanes[i]);
    }
  };
  const std::size_t compute = static_cast<std::size_t>(StallCause::kCompute);
  const std::size_t latency =
      static_cast<std::size_t>(StallCause::kDramLatency);

  obs.begin_run("first");
  obs.begin_layer(64, kLanes);
  feed(0, 0, 0, {});
  feed(64, 0, 0, {});  // every value repeats
  obs.on_pe_mac(kLanes);
  feed(128, 5, 2, {{64}});
  obs.on_pe_merge(1);  // only lane 00 moves
  feed(192, 5, 2, {{128}});
  feed(256, 0, 2, {{192}});  // occupancy returns to an earlier value
  // A sample after a gap of 1000 stall cycles: only the charged stall
  // bucket moved, by the whole gap.
  std::vector<Cycle> skipped(kStallCauseCount, 0);
  skipped[compute] = 192;
  skipped[latency] = 1000;
  feed(320, 0, 2, skipped);
  feed(1344, 0, 2, skipped);  // first sample after the span: repeats

  obs.begin_run("second");  // same values must still open every track
  obs.begin_layer(64, kLanes);
  feed(0, 0, 2, skipped);
  feed(64, 0, 2, skipped);
  obs.on_pe_mac(2);
  feed(128, 1, 2, skipped);

  std::ostringstream out;
  obs.trace().write(out);
  const StepFunctions written = parse_counter_steps(out.str());
  ASSERT_EQ(written.size(), fed.size());
  std::size_t written_samples = 0;
  for (const auto& [key, points] : fed) {
    const auto it = written.find(key);
    ASSERT_NE(it, written.end()) << std::get<1>(key) << "/"
                                 << std::get<2>(key);
    for (const auto& [ts, value] : points) {
      EXPECT_EQ(value_at(it->second, ts), value)
          << "pid " << std::get<0>(key) << " " << std::get<1>(key) << "/"
          << std::get<2>(key) << " at " << ts;
    }
    // Each group opens the track at its first sample, and a
    // single-series track never repeats a value (a PE lane repeats
    // when another lane moved).
    EXPECT_EQ(it->second.front().first, 0.0);
    for (std::size_t i = 1;
         i < it->second.size() && std::get<1>(key) != "PE busy"; ++i) {
      EXPECT_NE(it->second[i].second, it->second[i - 1].second);
    }
    written_samples += it->second.size();
  }
  EXPECT_LT(written_samples, fed_samples);
  // "PE busy" is written when any lane moves: the opening sample, the
  // 4-lane MAC and the lane-00 merge.
  EXPECT_EQ(written.at({0, "PE busy", "00"}).size(), 3u);
  EXPECT_EQ(written.at({0, "PE busy", "03"}).size(), 3u);
  EXPECT_EQ(written.at({0, "stall dram_latency", "cycles"}).size(), 2u);
  EXPECT_EQ(written.at({1, "stall dram_latency", "cycles"}).size(), 1u);
}

// The windowed rate tracks carry the exact percentage, not a
// truncated integer.
TEST(CompactTracks, TimeSeriesRatesAreUnrounded) {
  ObserverOptions oopts;
  oopts.trace = true;
  oopts.timeseries = true;
  Observer obs(oopts);
  obs.begin_run("ts");
  TimeSeriesSample s;
  s.dram_peak_bytes_per_cycle = 64;
  obs.sample(s);
  s.cycle = 300;
  s.dmb_hits = 1;
  s.dmb_misses = 2;
  s.alu_busy_cycles = 100;
  s.dram_bytes = 64 * 100;
  obs.sample(s);
  std::ostringstream out;
  obs.trace().write(out);
  const StepFunctions steps = parse_counter_steps(out.str());
  EXPECT_EQ(value_at(steps.at({0, "TS DMB hit rate", "%"}), 300),
            100.0 / 3.0);
  EXPECT_EQ(value_at(steps.at({0, "TS ALU util", "%"}), 300),
            100.0 * 100.0 / 300.0);
  EXPECT_EQ(value_at(steps.at({0, "TS DRAM BW util", "%"}), 300),
            100.0 * 6400.0 / (300.0 * 64.0));
}

// Golden trace: a small traced run — hybrid, then OP, in one observer
// with time series and spatial on — must serialize byte for byte as
// the committed fixture under every fast-forward mode. The small DMB
// forces evictions and partial spills, so the fixture holds M, X, C
// and i events, the "stall <cause>", "PE busy" and "TS ..." rate
// tracks and two process groups.
// On a mismatch the actual bytes are written to the working directory
// (build/tests under ctest) for diffing.
TEST(TraceGolden, SmallHybridThenOpRunMatchesFixture) {
  const Problem p = make_problem(60, 300, 3);
  AcceleratorConfig config;
  config.dmb_bytes = 4 * 1024;
  const Accelerator accelerator{config};
  ObserverOptions oopts;
  oopts.trace = true;
  oopts.sample_interval = 256;
  oopts.timeseries = true;
  oopts.timeseries_interval = 512;
  oopts.spatial = true;
  Observer obs(oopts);
  obs.begin_run("HyMM/golden");
  accelerator.run_layer(Dataflow::kHybrid, p.a_hat, p.x, p.w, &obs);
  obs.begin_run("OP/golden");
  accelerator.run_layer(Dataflow::kOuterProduct, p.a_hat, p.x, p.w, &obs);
  std::ostringstream out;
  obs.trace().write(out);
  const std::string doc = out.str();

  // The compact encoding: no track repeats its previous sample, and
  // every process group opens every track.
  std::map<int, std::set<std::string>> tracks_by_pid;
  std::set<std::string> all_tracks;
  std::map<std::pair<int, std::string>, std::string> last_args;
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value());
  for (const JsonValue& e : parsed->find("traceEvents")->array_items) {
    if (e.get_string("ph") != "C") continue;
    const int pid = static_cast<int>(e.get_number("pid"));
    const std::string name = e.get_string("name");
    std::ostringstream args;
    for (const auto& [k, v] : e.find("args")->object_members) {
      args << k << '=' << v.number_value << ';';
    }
    auto [it, first] = last_args.try_emplace({pid, name}, args.str());
    EXPECT_TRUE(first || it->second != args.str())
        << "pid " << pid << " " << name << " repeats at ts "
        << e.get_number("ts");
    it->second = args.str();
    tracks_by_pid[pid].insert(name);
    all_tracks.insert(name);
  }
  ASSERT_EQ(tracks_by_pid.size(), 2u);
  for (const auto& [pid, tracks] : tracks_by_pid) {
    EXPECT_EQ(tracks, all_tracks) << "pid " << pid;
  }
  EXPECT_TRUE(all_tracks.count("PE busy"));
  EXPECT_TRUE(all_tracks.count("TS ALU util"));

  const std::string path =
      std::string(HYMM_TEST_DATA_DIR) + "/trace_small.golden.json";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream golden;
  if (in) golden << in.rdbuf();
  if (!in || doc != golden.str()) {
    std::ofstream("trace_small.actual.json", std::ios::binary) << doc;
    FAIL() << "trace differs from (or missing) " << path
           << "; actual bytes written to trace_small.actual.json";
  }
}

}  // namespace
}  // namespace hymm
