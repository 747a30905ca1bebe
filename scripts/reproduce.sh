#!/usr/bin/env bash
#
# Regenerate every paper table/figure reproduction from the bench
# harnesses into results/.
#
# Each bench binary prints its reproduction (tables/series) to stdout.
# The harnesses run JOBS at a time (default: all cores), and the
# fleet policy sweep runs through awsweep's thread pool, so the
# whole reproduction scales with the machine.
#
# Usage:
#   scripts/reproduce.sh                 # every reproduction
#   JOBS=4 scripts/reproduce.sh          # cap the parallelism
#   BUILD_DIR=out scripts/reproduce.sh   # custom build dir
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
RESULTS_DIR="${RESULTS_DIR:-$ROOT/results}"
JOBS="${JOBS:-$(nproc)}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S "$ROOT" -DAW_BUILD_BENCH=ON
fi
cmake --build "$BUILD_DIR" -j"$(nproc)"

mkdir -p "$RESULTS_DIR"
# Absolute from here on: the awsweep steps run inside RESULTS_DIR.
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"
RESULTS_DIR="$(cd "$RESULTS_DIR" && pwd)"

shopt -s nullglob
benches=("$BUILD_DIR"/bench_*)
# Filter out non-executables (e.g. CMake-generated files).
runnable=()
for b in "${benches[@]}"; do
    [ -f "$b" ] && [ -x "$b" ] && runnable+=("$b")
done
if [ "${#runnable[@]}" -eq 0 ]; then
    echo "error: no bench_* binaries in $BUILD_DIR" \
         "(configure with -DAW_BUILD_BENCH=ON)" >&2
    exit 1
fi

# Run up to JOBS harnesses concurrently; each writes its own file,
# and per-pid exit statuses are collected at the end.
failed=0
pids=()
names=()
for bench in "${runnable[@]}"; do
    name="$(basename "$bench")"
    out="$RESULTS_DIR/$name.txt"
    echo "[reproduce] $name -> results/$name.txt"
    "$bench" >"$out" 2>&1 &
    pids+=($!)
    names+=("$name")
    while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do
        wait -n || true # status re-checked per pid below
    done
done
for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
        echo "[reproduce] FAILED: ${names[$i]}" \
             "(see results/${names[$i]}.txt)" >&2
        failed=1
    fi
done

# Run awsweep inside RESULTS_DIR, so its "artifacts:" line names the
# files relative to it, and drop the host wall time from its summary
# header: two reproductions' text outputs then compare with a plain
# diff. Usage: sweep_to TXT_NAME AWSWEEP_ARGS...
sweep_to() {
    local txt="$1"
    shift
    (cd "$RESULTS_DIR" && "$AWSWEEP" "$@" 2>&1) \
        | sed -E 's/ wall=[0-9.]+s//' >"$RESULTS_DIR/$txt"
}

# Fleet sweep: the routing-policy x config grid behind docs/FLEET.md,
# via the awsweep experiment engine (8 servers, AW vs tuned C6, all
# four policies), emitting both the summary table and the CSV
# artifact.
AWSWEEP="$BUILD_DIR/awsweep"
if [ -x "$AWSWEEP" ]; then
    echo "[reproduce] awsweep fleet sweep ->" \
         "results/fleet_policies.{txt,csv}"
    if ! sweep_to fleet_policies.txt \
            --workloads memcached \
            --configs aw,c1c6 \
            --policies round-robin,random,least-outstanding,pack-first \
            --fleet 8 --qps 400000 --seconds 0.3 \
            --threads "$JOBS" \
            --csv fleet_policies.csv; then
        echo "[reproduce] FAILED: awsweep fleet sweep" \
             "(see results/fleet_policies.txt)" >&2
        failed=1
    fi
else
    echo "[reproduce] warning: awsweep not built; skipping fleet sweep" >&2
fi

# Tail attribution: the request-tracer headline behind docs/TRACING.md
# (tuned C6 pays >10x the AW config's p99 wake share at the
# idle-heavy fleet point), emitted as the aw-trace/1 attribution
# sweep in both CSV and JSON.
if [ -x "$AWSWEEP" ]; then
    echo "[reproduce] awsweep tail attribution ->" \
         "results/trace_attribution.{txt,csv,json}"
    if ! sweep_to trace_attribution.txt \
            --workloads memcached \
            --configs aw_c6a,c1c6 \
            --policies round-robin \
            --fleet 8 --qps 100000 --seconds 0.3 \
            --threads "$JOBS" \
            --trace-requests trace_attribution.csv \
            --trace-requests-json trace_attribution.json; then
        echo "[reproduce] FAILED: awsweep tail attribution" \
             "(see results/trace_attribution.txt)" >&2
        failed=1
    fi
else
    echo "[reproduce] warning: awsweep not built; skipping tail attribution" >&2
fi

# Kernel speed telemetry: the pinned awperf scenarios, as both the
# human-readable table and the machine-readable BENCH_perf.json the
# CI perf gate consumes. The registry includes fleet_10k (a
# 10,000-server diurnal day through the epoch-parallel fleet
# kernel, ~13 s per repeat single-core), so this step dominates
# the script's runtime. When a stored baseline exists the gate
# script reports the local ratios too (informational here -- the
# hard >2x gate runs in CI, where the runner class is known).
AWPERF="$BUILD_DIR/awperf"
if [ -x "$AWPERF" ]; then
    echo "[reproduce] awperf -> results/BENCH_perf.{txt,json}"
    if ! "$AWPERF" --repeat 3 --json "$RESULTS_DIR/BENCH_perf.json" \
            >"$RESULTS_DIR/BENCH_perf.txt" 2>&1; then
        echo "[reproduce] FAILED: awperf" \
             "(see results/BENCH_perf.txt)" >&2
        failed=1
    elif [ -f "$ROOT/bench/baselines/perf_baseline.json" ] \
            && command -v python3 >/dev/null 2>&1; then
        python3 "$ROOT/scripts/check_perf.py" \
            "$RESULTS_DIR/BENCH_perf.json" \
            "$ROOT/bench/baselines/perf_baseline.json" \
            || echo "[reproduce] note: local perf below stored" \
                    "baseline (informational; CI gate is" \
                    "authoritative)" >&2
    fi
else
    echo "[reproduce] warning: awperf not built; skipping perf telemetry" >&2
fi

if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "[reproduce] done: ${#runnable[@]} harnesses -> $RESULTS_DIR"
