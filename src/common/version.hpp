// Single source of truth for the JSON schema versions this build
// writes (docs/schemas.md has the specs). Readers that accept older
// versions (obs/diff.cpp, scripts/perf_compare, scripts/
// check_schema.py) list their own compatibility sets.
#pragma once

namespace hymm {

// Run reports written by write_json_report (core/report.cpp).
inline constexpr const char* kRunReportSchema = "hymm-run-report/9";
// Perf snapshots written by bench/perf_regression.
inline constexpr const char* kBenchSchema = "hymm-bench/3";

}  // namespace hymm
