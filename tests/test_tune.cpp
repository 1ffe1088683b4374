// Tests for the measured threshold search (src/tune/) — never worse
// than the fixed baseline, and thread count never changes the
// decision — plus the content fingerprints (graph/fingerprint) the
// sweep executor keys shared work on and the JSON value parser
// (obs/json) the diff tool reads reports with.
#include <cstdlib>

#include <gtest/gtest.h>

#include "graph/fingerprint.hpp"
#include "obs/json.hpp"
#include "sweep/sweep.hpp"
#include "tune/tuner.hpp"

namespace hymm {
namespace {

std::shared_ptr<const PreparedWorkload> cora_workload(double scale = 0.5) {
  const DatasetSpec spec = *find_dataset("CR");
  return std::make_shared<PreparedWorkload>(spec, scale, 42);
}

// --- JSON parser (obs/json) --------------------------------------

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

// --- Fingerprints ------------------------------------------------

TEST(Fingerprint, StableAndContentSensitive) {
  const auto w = cora_workload(0.25);
  const std::uint64_t fp1 = graph_fingerprint(w->a_hat());
  const std::uint64_t fp2 = graph_fingerprint(w->a_hat());
  EXPECT_EQ(fp1, fp2);

  // Any value change moves the fingerprint.
  CsrMatrix perturbed = w->a_hat();
  std::vector<Value> values = perturbed.values();
  values.front() += 1.0f;
  perturbed = CsrMatrix::from_parts(perturbed.rows(), perturbed.cols(),
                                    perturbed.row_ptr(), perturbed.col_idx(),
                                    std::move(values));
  EXPECT_NE(fp1, graph_fingerprint(perturbed));

  // Another seed draws other features.
  const std::uint64_t features = graph_fingerprint(w->workload().features);
  EXPECT_EQ(features, graph_fingerprint(w->workload().features));
  const auto other_seed = std::make_shared<PreparedWorkload>(
      *find_dataset("CR"), 0.25, 43);
  EXPECT_NE(features, graph_fingerprint(other_seed->workload().features));
}

TEST(Fingerprint, ConfigHashIgnoresThresholdAndObservability) {
  AcceleratorConfig base;
  const std::uint64_t h = tuning_config_hash(base);

  AcceleratorConfig threshold = base;
  threshold.tiling_threshold = 0.37;
  EXPECT_EQ(h, tuning_config_hash(threshold));

  AcceleratorConfig observed = base;
  observed.obs_sample_interval = 1;
  EXPECT_EQ(h, tuning_config_hash(observed));

  AcceleratorConfig resized = base;
  resized.dmb_bytes *= 2;
  EXPECT_NE(h, tuning_config_hash(resized));

  AcceleratorConfig repinned = base;
  repinned.dmb_pin_fraction = 0.5;
  EXPECT_NE(h, tuning_config_hash(repinned));
}

TEST(Fingerprint, HexRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dULL},
        ~std::uint64_t{0}}) {
    const std::string hex = fingerprint_hex(v);
    ASSERT_EQ(hex.size(), 18u);
    EXPECT_EQ(hex.substr(0, 2), "0x");
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef", 2), std::string::npos)
        << hex;
    EXPECT_EQ(std::strtoull(hex.c_str(), nullptr, 16), v);
  }
}

// --- Tuner --------------------------------------------------------

TEST(Tuner, CandidateListCoversBaselineAndDisabledCorner) {
  const std::vector<double> candidates = candidate_thresholds();
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0.0),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0.20),
            candidates.end());
}

TEST(Tuner, OffModeIsAPassThrough) {
  const auto w = cora_workload(0.25);
  const TuneDecision decision =
      tune_threshold(w, AcceleratorConfig{}, AutotuneMode::kOff);
  EXPECT_DOUBLE_EQ(decision.threshold, AcceleratorConfig{}.tiling_threshold);
  EXPECT_EQ(decision.simulations, 0u);
  EXPECT_TRUE(decision.candidates.empty());
}

TEST(Tuner, MeasuredNeverWorseThanFixedAndConsistent) {
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;
  const TuneDecision decision =
      tune_threshold(w, config, AutotuneMode::kMeasured, 2);
  ASSERT_GT(decision.simulations, 0u);

  // The fixed 20 % baseline was itself simulated; the winner can only
  // tie or beat it.
  const auto fixed = std::find_if(
      decision.candidates.begin(), decision.candidates.end(),
      [&](const TuneCandidateInfo& c) {
        return c.threshold == config.tiling_threshold;
      });
  ASSERT_NE(fixed, decision.candidates.end());
  EXPECT_GT(fixed->measured_cycles, 0.0);
  EXPECT_LE(decision.best_cycles, fixed->measured_cycles);

  // Re-simulating the tuned config reproduces the winning cycles
  // exactly (candidate cells and real runs share one simulator).
  AcceleratorConfig tuned = config;
  tuned.tiling_threshold = decision.threshold;
  ExperimentRequest request;
  request.workload = &w->workload();
  request.a_hat = &w->a_hat();
  request.weights = &w->weights();
  request.reference = &w->reference();
  request.flow = Dataflow::kHybrid;
  request.config = tuned;
  request.sort = &w->sort();
  request.sorted_features = &w->sorted_features();
  const ExperimentResult rerun = run_experiment(request);
  EXPECT_TRUE(rerun.verified);
  EXPECT_DOUBLE_EQ(static_cast<double>(rerun.stats.cycles),
                   decision.best_cycles);
}

TEST(Tuner, DecisionIsThreadCountInvariant) {
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;
  const TuneDecision d1 =
      tune_threshold(w, config, AutotuneMode::kMeasured, 1);
  const TuneDecision d4 =
      tune_threshold(w, config, AutotuneMode::kMeasured, 4);
  EXPECT_DOUBLE_EQ(d1.threshold, d4.threshold);
  EXPECT_DOUBLE_EQ(d1.best_cycles, d4.best_cycles);
  ASSERT_EQ(d1.candidates.size(), d4.candidates.size());
  for (std::size_t i = 0; i < d1.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1.candidates[i].measured_cycles,
                     d4.candidates[i].measured_cycles)
        << "candidate " << d1.candidates[i].threshold;
  }

  // And the tuned run itself is bit-identical at 1 vs 4 workers.
  SweepSpec spec;
  spec.workloads = {w};
  spec.configs = {config};
  spec.configs.front().tiling_threshold = d1.threshold;
  spec.flows = {Dataflow::kHybrid};
  SweepOptions one_worker;
  one_worker.threads = 1;
  SweepOptions four_workers;
  four_workers.threads = 4;
  const SweepRun run1 = SweepRunner(one_worker).run(spec);
  const SweepRun run4 = SweepRunner(four_workers).run(spec);
  ASSERT_EQ(run1.cells.size(), 1u);
  ASSERT_EQ(run4.cells.size(), 1u);
  const ExperimentResult& r1 = run1.cells.front().result;
  const ExperimentResult& r4 = run4.cells.front().result;
  EXPECT_EQ(r1.stats.cycles, r4.stats.cycles);
  EXPECT_EQ(r1.stats.mac_ops, r4.stats.mac_ops);
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    EXPECT_EQ(r1.stats.stall_cycles[i], r4.stats.stall_cycles[i]);
  }
}

TEST(Tuner, ToTuneInfoCarriesTheDecision) {
  const auto w = cora_workload(0.25);
  const TuneDecision decision =
      tune_threshold(w, AcceleratorConfig{}, AutotuneMode::kMeasured);
  const TuneInfo info = to_tune_info(decision);
  EXPECT_TRUE(info.enabled);
  EXPECT_DOUBLE_EQ(info.threshold, decision.threshold);
  EXPECT_EQ(info.simulations, decision.simulations);
  ASSERT_EQ(info.candidates.size(), decision.candidates.size());
  for (std::size_t i = 0; i < info.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(info.candidates[i].measured_cycles,
                     decision.candidates[i].measured_cycles);
  }
  EXPECT_EQ(info.config_hash, fingerprint_hex(decision.config_hash));
}

}  // namespace
}  // namespace hymm
