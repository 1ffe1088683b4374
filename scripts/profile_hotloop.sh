#!/usr/bin/env sh
# Profile the simulator hot loop with whichever profiler this machine
# actually has. Tries, in order:
#
#   1. perf record   (kernel support + perf_event access required;
#                     probed with a real one-shot collection, since
#                     the binary often exists where the syscall is
#                     forbidden)
#   2. gprofng       (binutils >= 2.39; userspace-only, works in
#                     containers)
#   3. gprof         (needs the binary built with -pg; detected by
#                     the run leaving a gmon.out behind)
#
# and exits 2 with a clear message when none of the three can
# profile here. HYMM_PROFILER=perf|gprofng|gprof skips the probe
# order and demands that one profiler (failing loudly if it cannot
# run instead of silently falling through).
#
# Usage:
#     scripts/profile_hotloop.sh [BINARY [ARGS...]]
#
# Defaults to the perf-gate configuration — serial, CR+CS, the same
# cells the wall-clock criterion is measured on:
#     HYMM_DATASETS=CR,CS HYMM_THREADS=1 build/bench/perf_regression \
#         --out /tmp/hymm_profile
#
# Knobs:
#     HYMM_PROFILER      force one backend: perf | gprofng | gprof
#     HYMM_PROFILE_DIR   perf.data / experiment output location
#                        (default: a fresh /tmp/hymm_hotloop.<pid>.*)
#     HYMM_NO_FASTFWD=1  profile the legacy per-cycle loop instead —
#                        useful to see what the fast-forward removed
#
# Build: function-level profiles need a build without link-time
# optimisation, such as the default RelWithDebInfo build. A Release
# build is link-time optimised (src/CMakeLists.txt), and there the
# per-cycle hot path collapses into run_phase.
#
# Reading the output: sort by exclusive CPU time. The known hot spots
# and their fixes are catalogued in docs/architecture.md ("Fast-forward
# and the host-side hot path"). Rejected loads no longer re-probe the
# DMB every cycle (LSQ parked loads), so LoadStoreQueue::tick and
# DenseMatrixBuffer::read should no longer top RWP/HyMM cells; if they
# do, a parked-load wake is firing too often. Sampling profilers
# undersample short runs; treat the *distribution* as meaningful, not
# the absolute seconds.

set -eu

if [ "$#" -gt 0 ]; then
    : # explicit binary + args given
elif [ -x build/bench/perf_regression ]; then
    HYMM_DATASETS="${HYMM_DATASETS:-CR,CS}"
    HYMM_THREADS="${HYMM_THREADS:-1}"
    export HYMM_DATASETS HYMM_THREADS
    set -- build/bench/perf_regression --out /tmp/hymm_profile
else
    echo "profile_hotloop.sh: build/bench/perf_regression missing;" \
         "build first (cmake --build build) or pass a binary" >&2
    exit 2
fi

# A profiler "is available" only if it can actually collect here —
# perf in particular is often installed where perf_event_open is
# forbidden (containers, perf_event_paranoid), so probe with a real
# one-shot collection, not just command -v.
perf_works() {
    command -v perf >/dev/null 2>&1 &&
        perf record -o /dev/null --quiet -- true >/dev/null 2>&1
}

run_perf() {
    data="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.perf.data}"
    echo "== collecting (perf record): $* -> $data" >&2
    perf record -g -o "$data" -- "$@"
    echo "== flat profile (exclusive CPU time)"
    perf report --stdio --no-children -i "$data" | head -60
    echo "== hottest call chains"
    perf report --stdio -g --no-demangle=no -i "$data" | head -80
    echo "profile kept at $data (rerun views with:" \
         "perf report -i $data)" >&2
}

run_gprofng() {
    experiment="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.er}"
    rm -rf "$experiment"
    echo "== collecting (gprofng): $* -> $experiment" >&2
    gprofng collect app -o "$experiment" "$@"
    echo "== flat profile (exclusive CPU time)"
    gprofng display text -functions "$experiment"
    echo "== callers/callees of the top frame"
    gprofng display text -callers-callees "$experiment" | head -60
    echo "experiment kept at $experiment (rerun views with:" \
         "gprofng display text -functions $experiment)" >&2
}

run_gprof() {
    # gmon.out lands in the process's working directory, so run from
    # the profile dir — which means the binary path must be absolute.
    binary=$(realpath "$1"); shift
    workdir="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.gprof}"
    mkdir -p "$workdir"
    echo "== collecting (gprof): $binary $* -> $workdir/gmon.out" >&2
    ( cd "$workdir" >/dev/null || exit 2
      "$binary" "$@" )
    # gprof needs an instrumented binary: an un-instrumented run
    # leaves no gmon.out, which is a configuration error, not a
    # profile of zero samples.
    if [ ! -s "$workdir/gmon.out" ]; then
        echo "profile_hotloop.sh: $binary produced no gmon.out —" \
             "rebuild with -pg for gprof" \
             "(cmake -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg)" >&2
        exit 2
    fi
    echo "== flat profile (exclusive CPU time)"
    gprof -b "$binary" "$workdir/gmon.out" | head -80
    echo "profile kept at $workdir/gmon.out (rerun views with:" \
         "gprof $binary $workdir/gmon.out)" >&2
}

backend="${HYMM_PROFILER:-}"
if [ -z "$backend" ]; then
    if perf_works; then
        backend=perf
    elif command -v gprofng >/dev/null 2>&1; then
        backend=gprofng
    elif command -v gprof >/dev/null 2>&1; then
        backend=gprof
    else
        echo "profile_hotloop.sh: no usable profiler found — need one of:" >&2
        echo "  perf    (linux-tools; also needs perf_event access)" >&2
        echo "  gprofng (binutils >= 2.39)" >&2
        echo "  gprof   (binutils; binary must be built with -pg)" >&2
        exit 2
    fi
fi

case "$backend" in
    perf)
        if ! perf_works; then
            echo "profile_hotloop.sh: HYMM_PROFILER=perf but perf cannot" \
                 "collect here (missing binary or perf_event access denied)" >&2
            exit 2
        fi
        run_perf "$@" ;;
    gprofng)
        if ! command -v gprofng >/dev/null 2>&1; then
            echo "profile_hotloop.sh: HYMM_PROFILER=gprofng but gprofng" \
                 "not found (binutils >= 2.39)" >&2
            exit 2
        fi
        run_gprofng "$@" ;;
    gprof)
        if ! command -v gprof >/dev/null 2>&1; then
            echo "profile_hotloop.sh: HYMM_PROFILER=gprof but gprof" \
                 "not found" >&2
            exit 2
        fi
        run_gprof "$@" ;;
    *)
        echo "profile_hotloop.sh: unknown HYMM_PROFILER '$backend'" \
             "(expected perf, gprofng or gprof)" >&2
        exit 2 ;;
esac
