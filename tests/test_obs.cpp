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
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
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
  std::ostringstream out;
  t.write(out);
  const std::string doc = out.str();
  EXPECT_TRUE(json_is_valid(doc)) << doc;
  const auto ts = extract_timestamps(doc);
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  // Metadata precedes timed events.
  EXPECT_LT(doc.find("process_name"), doc.find("\"blip\""));
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

TEST(Trace, CounterWithEmptySeriesEmitsNoArgs) {
  TraceWriter t;
  t.counter(2, t.intern("track"), t.intern(""), 4, 99);
  std::ostringstream out;
  t.write(out);
  EXPECT_EQ(out.str(),
            "{\"traceEvents\":[{\"name\":\"track\",\"ph\":\"C\",\"pid\":2,"
            "\"tid\":0,\"ts\":4}],\"displayTimeUnit\":\"ms\"}\n");
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


// Golden trace: a small traced run — hybrid, then OP, in one observer
// with time series and spatial on — must serialize byte for byte as
// the committed fixture. The small DMB forces evictions and partial
// spills, so the fixture holds M, X, C and i events, the "stall
// <cause>", "PE NN busy" and "TS ..." tracks and two process groups.
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
