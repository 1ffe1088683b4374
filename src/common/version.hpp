// Single source of truth for the JSON schema version this build
// writes (docs/schemas.md has the spec). Readers (obs/diff.cpp,
// scripts/check_schema.py) accept exactly this version.
#pragma once

namespace hymm {

// Run reports written by write_results_json (core/report.cpp).
inline constexpr const char* kRunReportSchema = "hymm-run-report/9";

}  // namespace hymm
