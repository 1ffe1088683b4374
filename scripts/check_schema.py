#!/usr/bin/env python3
"""Validate HyMM JSON artifacts against their declared schema.

Usage:
    check_schema.py FILE [FILE ...]

Each file must declare the run-report schema and satisfy its
structural requirements:

  hymm-run-report/9       "results" array; every result carries the
                          required run keys and a "stats" object with
                          a stall breakdown. A "spatial" object's
                          per-region cell arrays must match the
                          declared grid geometry, with "pe" counters
                          and an "imbalance" summary present; a
                          result labeled "sampled": true is refused
                          (an estimate from a removed mode, not an
                          exact run).

Prints one OK/FAIL line per file with every problem found. Exit
status: 0 when all files validate, 1 when any file fails, 2 on usage
errors or unreadable files.
"""

import json
import sys

RUN_REPORT_SCHEMA = "hymm-run-report/9"

RESULT_KEYS = ("dataset", "abbrev", "scale", "flow", "cycles", "verified")
SPATIAL_CELL_KEYS = ("nnz", "macs", "dmb_hits", "dmb_misses",
                     "dram_bytes", "cycles")


def check_stalls(obj, where, problems):
    stalls = obj.get("stalls")
    if not isinstance(stalls, dict) or not stalls:
        problems.append(f"{where}: missing or empty \"stalls\" object")
        return
    for cause, cycles in stalls.items():
        if not isinstance(cycles, (int, float)):
            problems.append(f"{where}: stall {cause!r} is not a number")


def check_spatial(spatial, where, problems):
    rows = spatial.get("grid_rows")
    cols = spatial.get("grid_cols")
    if not isinstance(rows, int) or not isinstance(cols, int) \
            or rows <= 0 or cols <= 0:
        problems.append(f"{where}: spatial grid geometry is invalid")
        return
    cells = rows * cols
    regions = spatial.get("regions")
    if not isinstance(regions, dict):
        problems.append(f"{where}: spatial has no \"regions\" object")
    else:
        for name, region in regions.items():
            for key in SPATIAL_CELL_KEYS:
                column = region.get(key)
                if not isinstance(column, list) or len(column) != cells:
                    problems.append(
                        f"{where}: spatial region {name!r} array {key!r} "
                        f"is not a {cells}-cell list")
    if not isinstance(spatial.get("residual"), dict):
        problems.append(f"{where}: spatial has no \"residual\" object")
    pe = spatial.get("pe")
    if not isinstance(pe, dict) or \
            not isinstance(pe.get("busy_cycles"), list) or \
            not isinstance(pe.get("mac_ops"), list):
        problems.append(f"{where}: spatial has no per-PE counter arrays")
    if not isinstance(spatial.get("imbalance"), dict):
        problems.append(f"{where}: spatial has no \"imbalance\" object")


def check_run_report(doc, problems):
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("missing or empty \"results\" array")
        return
    for i, result in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(result, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in RESULT_KEYS:
            if key not in result:
                problems.append(f"{where}: missing key {key!r}")
        stats = result.get("stats")
        if not isinstance(stats, dict):
            problems.append(f"{where}: missing \"stats\" object")
        else:
            check_stalls(stats, f"{where}.stats", problems)
        spatial = result.get("spatial")
        if isinstance(spatial, dict):
            check_spatial(spatial, where, problems)
        if result.get("sampled") is True:
            problems.append(
                f"{where}: \"sampled\" is true: a sampled estimate, "
                "not an exact run")


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL {path}: cannot read: {err}")
        return 2
    if not isinstance(doc, dict):
        print(f"FAIL {path}: top level is not an object")
        return 1
    schema = doc.get("schema")
    problems = []
    if schema == RUN_REPORT_SCHEMA:
        check_run_report(doc, problems)
    else:
        problems.append(f"unsupported schema {schema!r}")
    if problems:
        print(f"FAIL {path} ({schema}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"OK   {path} ({schema})")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        status = max(status, check_file(path))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
