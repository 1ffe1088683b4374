// BenchOptions parsing: the shared bench knobs must fail fast with a
// UsageError naming the bad value (no silent fallback to all datasets
// or the default scale), flags must win over the environment, and
// unowned flags must pass through for the caller.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep/bench_options.hpp"

namespace hymm {
namespace {

// Fake environment backed by a map; missing names return nullptr like
// ::getenv.
class FakeEnv {
 public:
  explicit FakeEnv(std::map<std::string, std::string> vars)
      : vars_(std::move(vars)) {}

  BenchOptions::EnvGetter getter() const {
    return [this](const char* name) -> const char* {
      const auto it = vars_.find(name);
      return it == vars_.end() ? nullptr : it->second.c_str();
    };
  }

 private:
  std::map<std::string, std::string> vars_;
};

BenchOptions parse(std::vector<std::string> args,
                   std::map<std::string, std::string> env = {},
                   std::vector<std::string>* unrecognized = nullptr) {
  const FakeEnv fake(std::move(env));
  return BenchOptions::parse(args, fake.getter(), unrecognized);
}

std::string error_of(std::vector<std::string> args,
                     std::map<std::string, std::string> env = {}) {
  try {
    parse(std::move(args), std::move(env));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(BenchOptionsTest, DefaultsToAllPaperDatasets) {
  const BenchOptions opts = parse({});
  EXPECT_EQ(opts.datasets.size(), paper_datasets().size());
  EXPECT_FALSE(opts.datasets_explicit);
  EXPECT_FALSE(opts.scale.has_value());
  EXPECT_FALSE(opts.full_datasets);
  EXPECT_EQ(opts.threads, 0u);
  EXPECT_EQ(opts.seed, 42u);
}

TEST(BenchOptionsTest, EnvDatasetSelection) {
  const BenchOptions opts = parse({}, {{"HYMM_DATASETS", "CR,AP"}});
  ASSERT_EQ(opts.datasets.size(), 2u);
  EXPECT_EQ(opts.datasets[0].abbrev, "CR");
  EXPECT_EQ(opts.datasets[1].abbrev, "AP");
  EXPECT_TRUE(opts.datasets_explicit);
}

// The historical bug: unknown tokens used to silently fall back to
// all seven datasets. They must fail fast naming the token.
TEST(BenchOptionsTest, UnknownDatasetTokenFailsFast) {
  const std::string err = error_of({}, {{"HYMM_DATASETS", "CR,bogus"}});
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("HYMM_DATASETS"), std::string::npos) << err;

  const std::string flag_err = error_of({"--datasets", "nope"});
  EXPECT_NE(flag_err.find("nope"), std::string::npos) << flag_err;
  EXPECT_NE(flag_err.find("--datasets"), std::string::npos) << flag_err;
}

// The historical bug: HYMM_SCALE was parsed with atof, so
// HYMM_SCALE=fast silently meant "default scale".
TEST(BenchOptionsTest, MalformedScaleFailsFast) {
  const std::string err = error_of({}, {{"HYMM_SCALE", "fast"}});
  EXPECT_NE(err.find("fast"), std::string::npos) << err;
  EXPECT_NE(err.find("HYMM_SCALE"), std::string::npos) << err;

  EXPECT_NE(error_of({"--scale", "0"}), "");    // zero rejected
  EXPECT_NE(error_of({"--scale", "1.5"}), "");  // above 1 rejected
  EXPECT_EQ(*parse({"--scale", "0.25"}).scale, 0.25);
}

TEST(BenchOptionsTest, MalformedThreadsFailsFast) {
  const std::string err = error_of({}, {{"HYMM_THREADS", "many"}});
  EXPECT_NE(err.find("many"), std::string::npos) << err;
  EXPECT_NE(err.find("HYMM_THREADS"), std::string::npos) << err;
  EXPECT_NE(error_of({"--threads", "-2"}), "");
  EXPECT_EQ(parse({"--threads", "8"}).threads, 8u);
}

TEST(BenchOptionsTest, FlagsWinOverEnvironment) {
  const BenchOptions opts =
      parse({"--datasets=AC", "--scale=0.5", "--threads=2"},
            {{"HYMM_DATASETS", "CR,AP"},
             {"HYMM_SCALE", "0.1"},
             {"HYMM_THREADS", "7"}});
  ASSERT_EQ(opts.datasets.size(), 1u);
  EXPECT_EQ(opts.datasets[0].abbrev, "AC");
  EXPECT_EQ(*opts.scale, 0.5);
  EXPECT_EQ(opts.threads, 2u);
}

TEST(BenchOptionsTest, ScaleForPrecedence) {
  const DatasetSpec fr = *find_dataset("FR");  // scaled by default

  BenchOptions defaults = parse({});
  EXPECT_EQ(defaults.scale_for(fr), default_scale(fr));

  const BenchOptions full = parse({"--full-datasets"});
  EXPECT_TRUE(full.full_datasets);
  EXPECT_EQ(full.scale_for(fr), 1.0);

  // An explicit scale overrides --full-datasets.
  const BenchOptions both = parse({"--full-datasets", "--scale", "0.3"});
  EXPECT_EQ(both.scale_for(fr), 0.3);
}

TEST(BenchOptionsTest, TraceAndJsonDirs) {
  const BenchOptions opts = parse({"--trace-dir", "/tmp/t"},
                                  {{"HYMM_JSON_DIR", "/tmp/j"}});
  EXPECT_EQ(opts.trace_dir, "/tmp/t");
  EXPECT_EQ(opts.json_dir, "/tmp/j");
  EXPECT_TRUE(opts.observing());
  EXPECT_FALSE(parse({}).observing());
}

// The spatial heatmap knob: off by default, bare --spatial means
// auto tile sizing (and never consumes the following argument), =N
// picks an explicit tile edge, =0 turns it back off.
TEST(BenchOptionsTest, SpatialKnob) {
  EXPECT_EQ(parse({}).spatial_tile, 0u);

  const BenchOptions bare = parse({"--spatial"});
  EXPECT_EQ(bare.spatial_tile, 1u);
  EXPECT_TRUE(bare.observing());

  EXPECT_EQ(parse({"--spatial=64"}).spatial_tile, 64u);
  EXPECT_EQ(parse({"--spatial=0"}).spatial_tile, 0u);
  EXPECT_FALSE(parse({"--spatial=0"}).observing());

  std::vector<std::string> rest;
  const BenchOptions opts = parse({"--spatial", "--seed=9"}, {}, &rest);
  EXPECT_EQ(opts.spatial_tile, 1u);
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_TRUE(rest.empty());

  EXPECT_EQ(parse({}, {{"HYMM_SPATIAL", "32"}}).spatial_tile, 32u);
  // Flags win over the environment.
  EXPECT_EQ(parse({"--spatial=16"}, {{"HYMM_SPATIAL", "32"}}).spatial_tile,
            16u);

  const std::string err = error_of({}, {{"HYMM_SPATIAL", "huge"}});
  EXPECT_NE(err.find("huge"), std::string::npos) << err;
  EXPECT_NE(err.find("HYMM_SPATIAL"), std::string::npos) << err;
  EXPECT_NE(error_of({"--spatial=banana"}), "");
}

TEST(BenchOptionsTest, UnrecognizedFlagsPassThrough) {
  std::vector<std::string> rest;
  const BenchOptions opts =
      parse({"--out", "file.json", "--seed=9", "--rev", "abc"}, {}, &rest);
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_EQ(rest,
            (std::vector<std::string>{"--out", "file.json", "--rev", "abc"}));
}

TEST(BenchOptionsTest, UnknownFlagIsErrorWithoutPassthrough) {
  const std::string err = error_of({"--frobnicate"});
  EXPECT_NE(err.find("--frobnicate"), std::string::npos) << err;
}

TEST(BenchOptionsTest, MissingValueIsError) {
  EXPECT_NE(error_of({"--datasets"}), "");
  EXPECT_NE(error_of({"--scale="}), "");
}

// The open-loop request pipeline is gone: each of its five flags, in
// every spelling, fails fast naming the flag, and its HYMM_* variables
// are no longer read, so a leftover one can neither fail nor change
// the options.
const std::vector<std::pair<std::string, std::string>> kRemovedServeKnobs = {
    {"--arrival-rate", "HYMM_ARRIVAL_RATE"}, {"--requests", "HYMM_REQUESTS"},
    {"--batch", "HYMM_BATCH"},               {"--queue-cap", "HYMM_QUEUE_CAP"},
    {"--reuse", "HYMM_REUSE"}};

TEST(BenchOptionsTest, ServeKnobDefaultsAreUnset) {
  std::map<std::string, std::string> env;
  for (const auto& [flag, var] : kRemovedServeKnobs) env[var] = "8";
  const BenchOptions opts = parse({}, env);
  const BenchOptions defaults = parse({});
  EXPECT_EQ(opts.seed, defaults.seed);
  EXPECT_EQ(opts.threads, defaults.threads);
  EXPECT_EQ(opts.datasets.size(), defaults.datasets.size());
  EXPECT_FALSE(opts.datasets_explicit);
}

TEST(BenchOptionsTest, ServeKnobsParseFromFlags) {
  for (const auto& [flag, var] : kRemovedServeKnobs) {
    for (const std::string& arg : {flag + "=8", flag}) {
      const std::string err = error_of({arg});
      EXPECT_NE(err.find(flag), std::string::npos) << arg << ": " << err;
    }
    const std::string err = error_of({flag, "8"});
    EXPECT_NE(err.find(flag), std::string::npos) << flag << ": " << err;
  }
}

TEST(BenchOptionsTest, ServeKnobsParseFromEnvAndFlagsWin) {
  for (const auto& [flag, var] : kRemovedServeKnobs) {
    // The variable is ignored, and the flag still fails next to it.
    const BenchOptions opts = parse({"--seed=9"}, {{var, "4"}});
    EXPECT_EQ(opts.seed, 9u) << var;
    const std::string err = error_of({flag + "=4"}, {{var, "4"}});
    EXPECT_NE(err.find(flag), std::string::npos) << flag << ": " << err;
  }
}

TEST(BenchOptionsTest, ServeKnobsFailFastOnBadValues) {
  // Values the old parser rejected no longer reach a parser: a junk
  // variable is ignored, and the flag fails on its name, not its value.
  for (const auto& [flag, var] : kRemovedServeKnobs) {
    EXPECT_NO_THROW(parse({}, {{var, "banana"}})) << var;
    const std::string err = error_of({flag + "=banana"});
    EXPECT_NE(err.find(flag), std::string::npos) << flag << ": " << err;
    EXPECT_EQ(err.find(var), std::string::npos) << flag << ": " << err;
  }
}

// Sampled-simulation knob: off by default, bare --sample means the
// default 0.25 fraction (and never consumes the following argument),
// out-of-range or malformed fractions fail fast naming the value —
// no clamping, no silent fallback to exact mode.
TEST(BenchOptionsTest, SampleKnob) {
  EXPECT_EQ(parse({}).sample, 0.0);

  EXPECT_DOUBLE_EQ(parse({"--sample"}).sample, 0.25);
  EXPECT_DOUBLE_EQ(parse({"--sample=0.5"}).sample, 0.5);
  EXPECT_DOUBLE_EQ(parse({"--sample=1"}).sample, 1.0);
  // 0 = exact mode, legal from the environment and the flag.
  EXPECT_DOUBLE_EQ(parse({"--sample=0"}).sample, 0.0);

  std::vector<std::string> rest;
  const BenchOptions opts = parse({"--sample", "--seed=9"}, {}, &rest);
  EXPECT_DOUBLE_EQ(opts.sample, 0.25);
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_TRUE(rest.empty());

  EXPECT_DOUBLE_EQ(parse({}, {{"HYMM_SAMPLE", "0.1"}}).sample, 0.1);
  // Flags win over the environment.
  EXPECT_DOUBLE_EQ(parse({"--sample=0.75"}, {{"HYMM_SAMPLE", "0.1"}}).sample,
                   0.75);

  const std::string high = error_of({"--sample=1.5"});
  EXPECT_NE(high.find("1.5"), std::string::npos) << high;
  EXPECT_NE(high.find("--sample"), std::string::npos) << high;
  EXPECT_NE(error_of({"--sample=-0.2"}), "");
  const std::string junk = error_of({"--sample=abc"});
  EXPECT_NE(junk.find("abc"), std::string::npos) << junk;
  const std::string env_err = error_of({}, {{"HYMM_SAMPLE", "lots"}});
  EXPECT_NE(env_err.find("HYMM_SAMPLE"), std::string::npos) << env_err;
  EXPECT_NE(env_err.find("lots"), std::string::npos) << env_err;
}

// A sampled run attaches no observer, so asking for a trace, a time
// series or spatial attribution with it is a usage error naming both
// knobs, in whichever spelling set them. The JSON report stays legal.
TEST(BenchOptionsTest, SampleRejectsObserverOutputs) {
  const auto expect_conflict = [](const std::string& err,
                                  const std::string& output,
                                  const std::string& sample) {
    EXPECT_NE(err.find(output), std::string::npos) << err;
    EXPECT_NE(err.find(sample), std::string::npos) << err;
  };
  expect_conflict(error_of({"--sample", "--trace-dir=out"}), "--trace-dir",
                  "--sample");
  expect_conflict(
      error_of({}, {{"HYMM_SAMPLE", "0.25"}, {"HYMM_TRACE_DIR", "out"}}),
      "HYMM_TRACE_DIR", "HYMM_SAMPLE");
  expect_conflict(error_of({"--timeseries=64", "--sample=0.5"}),
                  "--timeseries", "--sample");
  expect_conflict(error_of({"--spatial"}, {{"HYMM_SAMPLE", "0.5"}}),
                  "--spatial", "HYMM_SAMPLE");

  EXPECT_EQ(parse({"--sample", "--json-dir=out"}).json_dir, "out");
  EXPECT_EQ(parse({"--sample=0", "--trace-dir=out"}).trace_dir, "out");
  EXPECT_DOUBLE_EQ(parse({"--sample", "--timeseries=0", "--spatial=0"}).sample,
                   0.25);
}

// sweep_options() carries the workers, the sampling fraction and the
// observers the output knobs ask for.
TEST(BenchOptionsTest, SweepOptionsFollowTheKnobs) {
  const SweepOptions plain = parse({"--threads=3"}).sweep_options();
  EXPECT_EQ(plain.threads, 3u);
  EXPECT_FALSE(plain.observe);
  EXPECT_EQ(parse({"--sample=0.5"}).sweep_options().sample, 0.5);

  const SweepOptions observed =
      parse({"--trace-dir=t", "--timeseries=64", "--spatial=8"})
          .sweep_options();
  EXPECT_TRUE(observed.observe);
  EXPECT_TRUE(observed.observer_options.trace);
  EXPECT_TRUE(observed.observer_options.timeseries);
  EXPECT_EQ(observed.observer_options.timeseries_interval, 64u);
  EXPECT_TRUE(observed.observer_options.spatial);
  EXPECT_EQ(observed.observer_options.spatial_tile, 8u);

  const SweepOptions report = parse({"--json-dir=j"}).sweep_options();
  EXPECT_TRUE(report.observe);
  EXPECT_FALSE(report.observer_options.trace);
}

// The per-tile router is gone: --route in every spelling fails fast
// naming the flag, and a stale HYMM_ROUTE in the environment is not
// read at all, so it can neither fail nor change the options.
TEST(BenchOptionsTest, RouteKnob) {
  for (const std::string arg : {"--route", "--route=global", "--route=tiles",
                                "--route=tiles:measured"}) {
    const std::string err = error_of({arg});
    EXPECT_NE(err.find("--route"), std::string::npos) << arg << ": " << err;
  }

  const BenchOptions opts = parse({"--seed=9"}, {{"HYMM_ROUTE", "tiles"}});
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_EQ(opts.autotune, AutotuneMode::kOff);
}

// With --route gone there is no route/autotune conflict left: --route
// next to --autotune fails on the unknown --route, and every spelling
// of --autotune alone still selects the measured search.
TEST(BenchOptionsTest, RouteConflictsWithAutotune) {
  const std::string err = error_of({"--route=tiles", "--autotune=measured"});
  EXPECT_NE(err.find("--route"), std::string::npos) << err;
  EXPECT_EQ(
      parse({}, {{"HYMM_ROUTE", "tiles"}, {"HYMM_AUTOTUNE", "measured"}})
          .autotune,
      AutotuneMode::kMeasured);

  EXPECT_EQ(parse({}).autotune, AutotuneMode::kOff);
  std::vector<std::string> rest;
  const BenchOptions bare = parse({"--autotune", "--seed=9"}, {}, &rest);
  EXPECT_EQ(bare.autotune, AutotuneMode::kMeasured);
  EXPECT_EQ(bare.seed, 9u);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(parse({"--autotune=measured"}).autotune, AutotuneMode::kMeasured);
  EXPECT_EQ(parse({"--autotune=off"}).autotune, AutotuneMode::kOff);
}

// The analytic tuner and the tune cache are gone: their knobs must
// fail fast naming the knob and the rejected value.
TEST(BenchOptionsTest, RemovedTuningKnobsFailCleanly) {
  const std::string cache = error_of({"--tune-cache=x"});
  EXPECT_NE(cache.find("--tune-cache"), std::string::npos) << cache;
  const std::string analytic = error_of({"--autotune=analytic"});
  EXPECT_NE(analytic.find("--autotune"), std::string::npos) << analytic;
  EXPECT_NE(analytic.find("analytic"), std::string::npos) << analytic;
  const std::string env_err = error_of({}, {{"HYMM_AUTOTUNE", "analytic"}});
  EXPECT_NE(env_err.find("HYMM_AUTOTUNE"), std::string::npos) << env_err;
  EXPECT_NE(env_err.find("analytic"), std::string::npos) << env_err;
}

}  // namespace
}  // namespace hymm
