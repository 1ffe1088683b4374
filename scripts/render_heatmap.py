#!/usr/bin/env python3
"""Render the "spatial" tile heatmap of a hymm-run-report/9 report.

Usage:
    render_heatmap.py REPORT [--abbrev CR] [--flow HyMM] [--result N]
                      [--metric cycles] [--region op|rwp|region3|other]
                      [--log] [--ppm out.ppm]

Selects one result from the report (by --abbrev / --flow, or by
--result index; defaults to the first result carrying the needed
object), sums the chosen per-tile metric across the hybrid regions
(or takes a single region with --region) and renders the grid:

  * ASCII art on stdout (default): one shade character per tile,
    darkest = hottest, over the " .:-=+*#%@" ramp.
  * A PPM image with --ppm: a P3 heat colormap (black -> red ->
    yellow -> white), one pixel per tile; convertible with any image
    tool (e.g. ImageMagick) and viewable directly in most viewers.

Metrics: nnz, macs, dmb_hits, dmb_misses, dram_bytes, cycles.
--log applies log1p scaling before normalization, which makes
power-law tile distributions (the common case for degree-sorted
adjacency) readable.

Tile coordinates live in the simulated node order — for hybrid runs
that is the degree-sorted order, so row/column 0 holds the
highest-degree vertices (docs/schemas.md documents the caveat).

Exit status: 0 on success, 1 when the report has no matching result
or no spatial data, 2 on usage errors.
"""

import argparse
import json
import math
import sys

METRICS = ("nnz", "macs", "dmb_hits", "dmb_misses", "dram_bytes", "cycles")
SUPPORTED_SCHEMA = "hymm-run-report/9"
ASCII_RAMP = " .:-=+*#%@"


def fail(message, code=1):
    print(f"render_heatmap: {message}", file=sys.stderr)
    sys.exit(code)


def select_result(results, abbrev, flow, index, key):
    if index is not None:
        if not 0 <= index < len(results):
            fail(f"--result {index} out of range (report has "
                 f"{len(results)} results)")
        return results[index]
    for result in results:
        if abbrev and result.get("abbrev") != abbrev:
            continue
        if flow and result.get("flow", "").lower() != flow.lower():
            continue
        if key in result:
            return result
    wanted = " ".join(
        s for s in (abbrev and f"abbrev={abbrev}", flow and f"flow={flow}")
        if s)
    fail(f"no result with {key} data matches {wanted or 'the report'}")
    return None  # unreachable


def grid_values(spatial, metric, region):
    rows = int(spatial.get("grid_rows", 0))
    cols = int(spatial.get("grid_cols", 0))
    if rows == 0 or cols == 0:
        fail("spatial object has an empty grid")
    values = [0.0] * (rows * cols)
    regions = spatial.get("regions", {})
    if region is not None:
        if region not in regions:
            have = ", ".join(sorted(regions)) or "none"
            fail(f"region {region!r} not in report (present: {have})")
        selected = {region: regions[region]}
    else:
        selected = regions
    for cells in selected.values():
        column = cells.get(metric, [])
        for i, v in enumerate(column[: rows * cols]):
            values[i] += float(v)
    return rows, cols, values


def normalize(values, log_scale):
    if log_scale:
        values = [math.log1p(v) for v in values]
    peak = max(values, default=0.0)
    if peak <= 0.0:
        return [0.0] * len(values)
    return [v / peak for v in values]


def render_ascii(rows, cols, normalized, out):
    for r in range(rows):
        line = []
        for c in range(cols):
            v = normalized[r * cols + c]
            line.append(ASCII_RAMP[min(int(v * len(ASCII_RAMP)),
                                       len(ASCII_RAMP) - 1)])
        out.write("".join(line) + "\n")


def heat_rgb(v):
    # Black -> red -> yellow -> white, piecewise linear.
    if v <= 0.0:
        return (0, 0, 0)
    if v < 1 / 3:
        return (round(v * 3 * 255), 0, 0)
    if v < 2 / 3:
        return (255, round((v - 1 / 3) * 3 * 255), 0)
    return (255, 255, round((v - 2 / 3) * 3 * 255))


def render_ppm(rows, cols, normalized, path):
    lines = [f"P3\n{cols} {rows}\n255\n"]
    for r in range(rows):
        row = []
        for c in range(cols):
            row.extend(str(x) for x in heat_rgb(normalized[r * cols + c]))
        lines.append(" ".join(row) + "\n")
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines)
    except OSError as err:
        fail(f"cannot write {path}: {err}")


def main(argv):
    parser = argparse.ArgumentParser(
        prog="render_heatmap.py", add_help=True,
        description="Render the spatial tile heatmap of a "
                    "hymm-run-report/9 report.")
    parser.add_argument("report")
    parser.add_argument("--abbrev")
    parser.add_argument("--flow")
    parser.add_argument("--result", type=int, default=None)
    parser.add_argument("--metric", choices=METRICS, default="cycles")
    parser.add_argument("--region", default=None)
    parser.add_argument("--log", action="store_true")
    parser.add_argument("--ppm", default=None)
    args = parser.parse_args(argv[1:])

    try:
        with open(args.report, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {args.report}: {err}")

    schema = doc.get("schema", "")
    if schema != SUPPORTED_SCHEMA:
        fail(f"{args.report} has schema {schema!r}; heatmaps need "
             f"{SUPPORTED_SCHEMA}")

    result = select_result(doc.get("results", []), args.abbrev, args.flow,
                           args.result, "spatial")
    spatial = result.get("spatial")
    if not spatial:
        fail(f"result {result.get('abbrev')}/{result.get('flow')} carries "
             f"no spatial data (run with --spatial)")

    rows, cols, values = grid_values(spatial, args.metric, args.region)
    normalized = normalize(values, args.log)

    region_note = args.region or "all regions"
    print(f"# {result.get('abbrev')}/{result.get('flow')} — {args.metric} "
          f"({region_note}), {rows}x{cols} grid, tile "
          f"{spatial.get('tile')} nodes, peak {max(values, default=0):.0f}",
          file=sys.stderr)
    render_ascii(rows, cols, normalized, sys.stdout)
    if args.ppm:
        render_ppm(rows, cols, normalized, args.ppm)
        print(f"# wrote {args.ppm}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
