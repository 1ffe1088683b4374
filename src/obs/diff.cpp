#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/table.hpp"
#include "common/version.hpp"
#include "obs/json.hpp"

namespace hymm {

namespace {

// Reads a "stalls" object into the map; returns the bucket sum.
double read_stalls(const JsonValue* stalls,
                   std::map<std::string, double>* out) {
  double total = 0.0;
  if (stalls == nullptr || !stalls->is_object()) return total;
  for (const auto& [cause, value] : stalls->object_members) {
    if (!value.is_number()) continue;
    (*out)[cause] = value.number_value;
    total += value.number_value;
  }
  return total;
}

// One phase from a run-report SimStats object. The phase's cycles
// are the stall-bucket sum — exactly the phase's simulated cycles by
// the accounting invariant, which is what makes the attribution rows
// sum exactly to the cycle delta.
PhaseBreakdown read_phase(const std::string& name, const JsonValue& obj) {
  PhaseBreakdown phase;
  phase.name = name;
  phase.cycles = read_stalls(obj.find("stalls"), &phase.stalls);
  return phase;
}

bool read_bool(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->bool_value;
}

// Adds one region's per-cell array into `out` (non-numbers add 0).
void accumulate_cells(const JsonValue& arr, std::vector<double>* out) {
  for (std::size_t i = 0; i < out->size(); ++i) {
    if (arr.array_items[i].is_number()) {
      (*out)[i] += arr.array_items[i].number_value;
    }
  }
}

// The "spatial" object reduced to a region-summed tile grid of
// cycles and DRAM bytes. The dimensions must be non-negative integers
// and every region's cycles and dram_bytes arrays must hold exactly
// grid_rows x grid_cols entries, so the grid is never larger than the
// arrays the report carries; a grid with cells needs at least one
// region. Anything else sets `problem` and returns nullopt.
std::optional<TileGrid> read_tile_grid(const JsonValue& spatial,
                                       std::string* problem) {
  double dims[2] = {0.0, 0.0};
  const char* const dim_keys[2] = {"grid_rows", "grid_cols"};
  for (int d = 0; d < 2; ++d) {
    dims[d] = spatial.get_number(dim_keys[d]);
    if (!std::isfinite(dims[d]) || dims[d] < 0.0 ||
        dims[d] != std::floor(dims[d])) {
      std::ostringstream oss;
      oss << "spatial " << dim_keys[d] << " is not a non-negative integer";
      *problem = oss.str();
      return std::nullopt;
    }
  }
  const double cells = dims[0] * dims[1];
  std::vector<const JsonValue*> arrays;
  const JsonValue* regions = spatial.find("regions");
  if (regions != nullptr && regions->is_object()) {
    for (const auto& [name, region] : regions->object_members) {
      for (const char* key : {"cycles", "dram_bytes"}) {
        const JsonValue* arr = region.is_object() ? region.find(key) : nullptr;
        if (arr == nullptr || !arr->is_array() ||
            static_cast<double>(arr->array_items.size()) != cells) {
          std::ostringstream oss;
          oss << "spatial region \"" << name << "\" has no " << key
              << " array of grid_rows x grid_cols = " << dims[0] << " x "
              << dims[1] << " entries";
          *problem = oss.str();
          return std::nullopt;
        }
        arrays.push_back(arr);
      }
    }
  }
  TileGrid grid;
  if (cells == 0.0) return grid;
  if (arrays.empty()) {
    *problem = "spatial grid has cells but no region arrays";
    return std::nullopt;
  }
  grid.rows = static_cast<std::size_t>(dims[0]);
  grid.cols = static_cast<std::size_t>(dims[1]);
  grid.tile = spatial.get_number("tile");
  grid.cycles.assign(arrays.front()->array_items.size(), 0.0);
  grid.dram_bytes.assign(grid.cycles.size(), 0.0);
  for (std::size_t i = 0; i < arrays.size(); i += 2) {
    accumulate_cells(*arrays[i], &grid.cycles);
    accumulate_cells(*arrays[i + 1], &grid.dram_bytes);
  }
  return grid;
}

bool any_cell_moved(const std::vector<DiffRow>& rows) {
  return std::any_of(rows.begin(), rows.end(),
                     [](const DiffRow& row) { return row.delta != 0.0; });
}

}  // namespace

std::optional<ReportSnapshot> normalize_report(const JsonValue& doc,
                                               std::string* error) {
  const std::string schema = doc.get_string("schema");
  if (schema != kRunReportSchema) {
    if (error != nullptr) {
      *error = "unsupported schema \"" + schema + "\" (expected " +
               kRunReportSchema + ")";
    }
    return std::nullopt;
  }
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    if (error != nullptr) *error = "run report has no \"results\" array";
    return std::nullopt;
  }
  ReportSnapshot report;
  for (const JsonValue& r : results->array_items) {
    RunSnapshot run;
    run.abbrev = r.get_string("abbrev");
    run.flow = r.get_string("flow");
    run.cycles = r.get_number("cycles");
    run.verified = read_bool(r, "verified");
    if (read_bool(r, "sampled")) {
      // Sampled estimates are no longer produced; an old sampled
      // result is not an exact run and cannot be gated as one.
      if (error != nullptr) {
        *error = "result " + run.abbrev + "/" + run.flow +
                 " is a sampled estimate (\"sampled\": true), not an "
                 "exact run";
      }
      return std::nullopt;
    }
    const JsonValue* stats = r.find("stats");
    if (stats != nullptr) {
      run.skipped_cycles = stats->get_number("skipped_cycles");
      run.dram_total_bytes = stats->get_number("dram_total_bytes");
    }
    const JsonValue* combination = r.find("combination");
    const JsonValue* aggregation = r.find("aggregation");
    if (combination == nullptr && aggregation == nullptr) {
      // No per-phase objects: the whole-run stall vector still gates.
      if (stats != nullptr) run.phases.push_back(read_phase("total", *stats));
    } else if (combination != nullptr) {
      run.phases.push_back(read_phase("combination", *combination));
    }
    const JsonValue* regions = r.find("regions");
    if (regions != nullptr && regions->is_array() &&
        !regions->array_items.empty()) {
      // The hybrid's regions sum exactly to its aggregation phase;
      // the split is strictly more informative, so it replaces the
      // whole-phase row.
      for (std::size_t i = 0; i < regions->array_items.size(); ++i) {
        run.phases.push_back(read_phase("region" + std::to_string(i + 1),
                                        regions->array_items[i]));
      }
    } else if (aggregation != nullptr) {
      run.phases.push_back(read_phase("aggregation", *aggregation));
    }
    if (const JsonValue* spatial = r.find("spatial");
        spatial != nullptr && spatial->is_object()) {
      std::string problem;
      std::optional<TileGrid> tiles = read_tile_grid(*spatial, &problem);
      if (!tiles.has_value()) {
        if (error != nullptr) {
          *error = "result " + run.abbrev + "/" + run.flow + ": " + problem;
        }
        return std::nullopt;
      }
      run.tiles = std::move(*tiles);
    }
    report.runs.push_back(std::move(run));
  }
  return report;
}

std::optional<ReportSnapshot> load_report(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::optional<JsonValue> doc = json_parse(buffer.str());
  if (!doc.has_value()) {
    if (error != nullptr) *error = path + " is not valid JSON";
    return std::nullopt;
  }
  std::string inner;
  std::optional<ReportSnapshot> report = normalize_report(*doc, &inner);
  if (!report.has_value() && error != nullptr) {
    *error = path + ": " + inner;
  }
  return report;
}

bool RunDiff::changed() const {
  return cycle_delta() != 0.0 || dram_bytes_delta != 0.0 ||
         any_cell_moved(rows);
}

std::vector<RunDiff> diff_reports(const ReportSnapshot& base,
                                  const ReportSnapshot& current) {
  std::vector<RunDiff> diffs;
  for (const RunSnapshot& b : base.runs) {
    const auto match =
        std::find_if(current.runs.begin(), current.runs.end(),
                     [&](const RunSnapshot& c) {
                       return c.abbrev == b.abbrev && c.flow == b.flow;
                     });
    RunDiff diff;
    diff.abbrev = b.abbrev;
    diff.flow = b.flow;
    diff.base_cycles = b.cycles;
    if (match == current.runs.end()) {
      diff.missing = true;
      diffs.push_back(std::move(diff));
      continue;
    }
    const RunSnapshot& c = *match;
    diff.unverified = !c.verified;
    diff.current_cycles = c.cycles;
    diff.skipped_cycles_delta = c.skipped_cycles - b.skipped_cycles;
    diff.dram_bytes_delta = c.dram_total_bytes - b.dram_total_bytes;

    // Union of (phase, cause) cells across both sides; a phase or
    // cause missing from one side contributes zero there, so the rows
    // still sum exactly to the cycle delta.
    std::map<std::pair<std::string, std::string>,
             std::pair<double, double>>
        cells;
    for (const PhaseBreakdown& phase : b.phases) {
      for (const auto& [cause, cycles] : phase.stalls) {
        cells[{phase.name, cause}].first += cycles;
      }
    }
    for (const PhaseBreakdown& phase : c.phases) {
      for (const auto& [cause, cycles] : phase.stalls) {
        cells[{phase.name, cause}].second += cycles;
      }
    }
    for (const auto& [key, values] : cells) {
      DiffRow row;
      row.phase = key.first;
      row.cause = key.second;
      row.base = values.first;
      row.current = values.second;
      row.delta = values.second - values.first;
      diff.rows.push_back(std::move(row));
    }
    std::stable_sort(diff.rows.begin(), diff.rows.end(),
                     [](const DiffRow& a, const DiffRow& b) {
                       return std::abs(a.delta) > std::abs(b.delta);
                     });

    // Spatial tile-grid delta ranking: only meaningful when both
    // sides attributed over the same geometry (otherwise cell indices
    // name different adjacency blocks).
    if (!b.tiles.empty() && c.tiles.rows == b.tiles.rows &&
        c.tiles.cols == b.tiles.cols && c.tiles.tile == b.tiles.tile) {
      const std::size_t cells = b.tiles.rows * b.tiles.cols;
      for (std::size_t i = 0; i < cells; ++i) {
        TileDiffRow row;
        row.row = i / b.tiles.cols;
        row.col = i % b.tiles.cols;
        row.base_cycles = b.tiles.cycles[i];
        row.current_cycles = c.tiles.cycles[i];
        row.cycle_delta = row.current_cycles - row.base_cycles;
        row.dram_bytes_delta =
            c.tiles.dram_bytes[i] - b.tiles.dram_bytes[i];
        if (row.cycle_delta == 0.0 && row.dram_bytes_delta == 0.0) {
          continue;
        }
        diff.tile_rows.push_back(row);
      }
      std::stable_sort(diff.tile_rows.begin(), diff.tile_rows.end(),
                       [](const TileDiffRow& a, const TileDiffRow& b) {
                         return std::abs(a.cycle_delta) >
                                std::abs(b.cycle_delta);
                       });
    }
    diffs.push_back(std::move(diff));
  }
  return diffs;
}

void print_diff(const std::vector<RunDiff>& diffs, std::ostream& out,
                std::size_t max_rows) {
  for (const RunDiff& diff : diffs) {
    out << diff.abbrev << '/' << diff.flow;
    if (diff.missing) {
      out << ": missing from the current report\n";
      continue;
    }
    const double delta = diff.cycle_delta();
    out << ": cycles " << static_cast<std::int64_t>(diff.base_cycles)
        << " -> " << static_cast<std::int64_t>(diff.current_cycles);
    if (diff.base_cycles > 0) {
      out << " (" << Table::fmt_percent(delta / diff.base_cycles, 2)
          << ')';
    }
    out << ", dram_total_bytes "
        << static_cast<std::int64_t>(diff.dram_bytes_delta)
        << ", skipped_cycles "
        << static_cast<std::int64_t>(diff.skipped_cycles_delta) << '\n';
    if (diff.unverified) out << "  current run failed verification\n";
    // A share of a zero total (stalls moved between cells, the cycle
    // count did not) has no meaning.
    const auto share = [delta](double part) {
      return delta == 0.0 ? std::string("-")
                          : Table::fmt_percent(part / delta, 1);
    };
    std::string line;
    if (!any_cell_moved(diff.rows)) {
      out << "  no cycle delta\n";
    } else {
      Table table({"phase", "stall", "base", "current", "delta", "share"});
      std::size_t shown = 0;
      double omitted = 0.0;
      std::size_t omitted_rows = 0;
      for (const DiffRow& row : diff.rows) {
        if (row.delta == 0.0) continue;
        if (max_rows != 0 && shown >= max_rows) {
          omitted += row.delta;
          ++omitted_rows;
          continue;
        }
        ++shown;
        table.add_row({row.phase, row.cause,
                       std::to_string(static_cast<std::int64_t>(row.base)),
                       std::to_string(static_cast<std::int64_t>(row.current)),
                       std::to_string(static_cast<std::int64_t>(row.delta)),
                       share(row.delta)});
      }
      if (omitted_rows > 0) {
        table.add_row({"(other)", "-", "-", "-",
                       std::to_string(static_cast<std::int64_t>(omitted)),
                       share(omitted)});
      }
      std::ostringstream rendered;
      table.print(rendered);
      // Indent the table under the run header.
      std::istringstream lines(rendered.str());
      while (std::getline(lines, line)) out << "  " << line << '\n';
    }

    if (!diff.tile_rows.empty()) {
      out << "  spatial tiles with the largest cycle deltas:\n";
      Table tiles({"tile", "base", "current", "delta", "dram_bytes"});
      std::size_t shown = 0;
      for (const TileDiffRow& row : diff.tile_rows) {
        if (max_rows != 0 && shown >= max_rows) break;
        ++shown;
        tiles.add_row(
            {"(" + std::to_string(row.row) + "," + std::to_string(row.col) +
                 ")",
             std::to_string(static_cast<std::int64_t>(row.base_cycles)),
             std::to_string(static_cast<std::int64_t>(row.current_cycles)),
             std::to_string(static_cast<std::int64_t>(row.cycle_delta)),
             std::to_string(
                 static_cast<std::int64_t>(row.dram_bytes_delta))});
      }
      std::ostringstream tiles_rendered;
      tiles.print(tiles_rendered);
      std::istringstream tile_lines(tiles_rendered.str());
      while (std::getline(tile_lines, line)) out << "  " << line << '\n';
      if (diff.tile_rows.size() > shown) {
        out << "  (" << diff.tile_rows.size() - shown
            << " more tiles omitted)\n";
      }
    }
  }
}

}  // namespace hymm
