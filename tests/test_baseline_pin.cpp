// Exact pin of the committed perf snapshot: re-simulates every cell of
// bench/baselines/BENCH_ci_small.json (a hymm-run-report/9 of CR and
// CS, all three dataflows, default config and seed, the grid
// perf_regression runs by default) and requires cycles, per-phase
// cycles, every stall bucket, the fast-forward coverage and the DRAM
// bytes to equal the file. The CI perf job applies the same exact
// comparison (hymm_diff) to a fresh perf_regression snapshot; this
// test runs it in tier-1 and under every fast-forward mode.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "core/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/json.hpp"
#include "sweep/sweep.hpp"

namespace hymm {
namespace {

JsonValue load_baseline() {
  std::ifstream in(HYMM_BASELINE_FILE);
  std::stringstream text;
  text << in.rdbuf();
  std::optional<JsonValue> doc = json_parse(text.str());
  HYMM_CHECK_MSG(doc.has_value(), "unreadable baseline " HYMM_BASELINE_FILE);
  return std::move(*doc);
}

std::uint64_t as_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  EXPECT_TRUE(v != nullptr && v->is_number()) << "missing '" << key << "'";
  return v != nullptr ? static_cast<std::uint64_t>(v->number_value) : 0;
}

void expect_phase(const JsonValue& phase, Cycle cycles, const SimStats& s) {
  EXPECT_EQ(cycles, as_u64(phase, "cycles"));
  const JsonValue* stalls = phase.find("stalls");
  ASSERT_NE(stalls, nullptr);
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    const char* key = stall_cause_key(static_cast<StallCause>(i));
    EXPECT_EQ(s.stall_cycles[i], as_u64(*stalls, key)) << key;
  }
}

const JsonValue* find_run(const JsonValue& baseline, const std::string& abbrev,
                          const std::string& flow) {
  for (const JsonValue& run : baseline.find("results")->array_items) {
    if (run.get_string("abbrev") == abbrev && run.get_string("flow") == flow) {
      return &run;
    }
  }
  return nullptr;
}

class BaselinePin : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselinePin, CellsMatchCommittedSnapshot) {
  const JsonValue baseline = load_baseline();
  SweepSpec spec;
  spec.datasets = {*find_dataset(GetParam())};
  SweepOptions options;
  options.threads = 1;
  const SweepRun run = SweepRunner(options).run(spec);
  ASSERT_EQ(run.cells.size(), 3u);

  // The legacy loop (HYMM_NO_FASTFWD, HYMM_FASTFWD_CHECK) never skips;
  // the snapshot records the default fast-forward coverage.
  const bool skipping = fast_forward_mode() == FastForwardMode::kOn;
  for (const SweepCellResult& cell : run.cells) {
    const ExperimentResult& r = cell.result;
    const std::string flow = to_string(r.flow);
    SCOPED_TRACE(GetParam() + "/" + flow);
    const JsonValue* want = find_run(baseline, GetParam(), flow);
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(r.scale, want->get_number("scale"));
    EXPECT_TRUE(r.verified);

    EXPECT_EQ(r.cycles, as_u64(*want, "cycles"));
    const JsonValue* stats = want->find("stats");
    ASSERT_NE(stats, nullptr);
    expect_phase(*stats, r.cycles, r.stats);
    expect_phase(*want->find("combination"), r.combination_cycles,
                 r.combination_stats);
    expect_phase(*want->find("aggregation"), r.aggregation_cycles,
                 r.aggregation_stats);
    if (r.flow == Dataflow::kHybrid) {
      const auto& regions = want->find("regions")->array_items;
      ASSERT_EQ(regions.size(), r.hybrid_info.region_stats.size());
      for (std::size_t i = 0; i < regions.size(); ++i) {
        const SimStats& region = r.hybrid_info.region_stats[i];
        expect_phase(regions[i], region.stall_total(), region);
      }
    }
    EXPECT_EQ(r.stats.skipped_cycles,
              skipping ? as_u64(*stats, "skipped_cycles") : 0u);
    EXPECT_EQ(r.dram_total_bytes, as_u64(*stats, "dram_total_bytes"));
  }
}

INSTANTIATE_TEST_SUITE_P(CiSmall, BaselinePin,
                         ::testing::Values("CR", "CS"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace hymm
