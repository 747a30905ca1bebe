#!/usr/bin/env python3
"""Host-performance benchmark of the AgileWatts simulator.

Usage (from the repository root):

    python3 hostbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--size full|tiny]

Builds the `hostbench` driver (hostbench/CMakeLists.txt, which
compiles the simulator's `aw` library from this checkout) into
.bench_build/hostbench, then runs one driver process per iteration
until --seconds of host time are used (at least MIN_ITERATIONS).
Each iteration is a fresh process, so peak RSS belongs to that
workload alone and set-up is the cold set-up a user pays.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as
medians over the iterations. --trace 1 alternates traced and
untraced iterations, reports the per-layer metrics (medians over the
traced ones) and the tracing overhead, and checks that the exact
simulated counts match between the two.

Every iteration is checked: each grid point's seed-independent
invariants (in the driver), exact counts that repeat across
iterations, and, on the pinned seed at full size, every point's
simulated outputs against hostbench/reference.json. The last stdout
line is the JSON result; a failed build exits non-zero without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
REFERENCE = os.path.join(HERE, "reference.json")

PINNED_SEED = 42
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 60

# Grid points one iteration simulates (one operation = one point).
WORKLOADS = {
    "fleet_day_spread": 1,
    "fleet_day_packed": 1,
    "server_grid": 36,
    "fleet_capped_observed": 2,
}

def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def build():
    """Configure and build the driver; exit non-zero on failure."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4",
                 "--target", "hostbench"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("hostbench: build failed: " + " ".join(cmd))


def run_driver(workload, seed, trace, tiny, spans=None,
               fleet_threads=None):
    """One iteration in its own process; None if it failed."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    if fleet_threads:
        cmd += ["--fleet-threads", str(fleet_threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("hostbench: iteration timed out\n")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write("hostbench: driver exited %d\n"
                         % proc.returncode)
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        sys.stderr.write("hostbench: unreadable driver output\n")
        return None


def reference_points(workload):
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload)
    except FileNotFoundError:
        return None


def simulated(point):
    """The outputs the reference pins (label included)."""
    return {k: point[k] for k in ("label", "requests", "events",
                                  "p99_us", "power_w", "residency")}


def count_failures(workload, iterations, check_reference):
    """Failed points over all iterations, plus a reason list."""
    expected = WORKLOADS[workload]
    reference = reference_points(workload) if check_reference else None
    reasons = []
    if check_reference and reference is None:
        reasons.append("no reference recorded for " + workload)
    failed = 0
    for it in iterations:
        if it is None or len(it["points"]) != expected:
            failed += expected
            reasons.append("iteration failed or lost points")
            continue
        for i, p in enumerate(it["points"]):
            bad = not p["ok"]
            if bad:
                reasons.append(p["label"] + ": " + p["why"])
            elif reference is not None and (
                    i >= len(reference)
                    or simulated(p) != reference[i]):
                bad = True
                reasons.append(p["label"] + ": differs from reference")
            failed += bad
    counts = [it["counts"] for it in iterations if it is not None]
    if any(c != counts[0] for c in counts):
        reasons.append("exact counts differ between iterations")
    return failed, reasons


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-reference", action="store_true",
                    help="write this run's simulated outputs as the "
                         "workload's reference (pinned seed, full "
                         "size only)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    tiny = args.size == "tiny"
    end_to_end, per_layer = load_metric_specs()

    build()

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    # Traced runs alternate traced and untraced iterations so both
    # sides see the same machine state; the pair is the unit.
    start = time.monotonic()
    traced, untraced = [], []
    while True:
        t0 = time.monotonic()
        if args.trace:
            spans = os.path.join(out_dir, "spans",
                                 "%s-%d.json" % (tag, len(traced)))
            traced.append(run_driver(args.workload, args.seed, True,
                                     tiny, spans=spans))
        untraced.append(run_driver(args.workload, args.seed, False,
                                   tiny))
        step = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if None in traced + untraced:
            break  # the result is already incorrect
        if (len(untraced) >= MIN_ITERATIONS
                and elapsed + step > args.seconds):
            break

    iterations = traced + untraced
    ok = [it for it in iterations if it is not None]
    check_reference = args.seed == PINNED_SEED and not tiny
    if args.record_reference:
        if not (check_reference and ok and all(
                p["ok"] for it in ok for p in it["points"])):
            sys.exit("hostbench: --record-reference needs a clean "
                     "full-size run on seed %d" % PINNED_SEED)
        try:
            with open(REFERENCE) as f:
                reference = json.load(f)
        except FileNotFoundError:
            reference = {}
        reference[args.workload] = [simulated(p)
                                    for p in ok[0]["points"]]
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")

    failed, reasons = count_failures(args.workload, iterations,
                                     check_reference)
    attempted = WORKLOADS[args.workload] * len(iterations)
    correct = failed == 0 and not reasons

    good_untraced = [it for it in untraced if it is not None]
    good_traced = [it for it in traced if it is not None]
    metrics = {}
    if args.trace:
        for m in per_layer:
            if m["name"] == "bench.trace_overhead_s":
                value = (median([it["wall_s"] for it in good_traced])
                         - median([it["wall_s"]
                                   for it in good_untraced]))
            else:
                # A layer the workload does not exercise reads 0.
                value = median([{**it["counts"], **it["layers"]}
                                .get(m["name"], 0.0)
                                for it in good_traced])
                if m["unit"] == "count":
                    value = int(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in end_to_end:
            metrics[m["name"]] = {
                "value": median([it[m["name"]] for it in good_untraced]),
                "unit": m["unit"]}

    machine = ok[0]["machine"] if ok else {}
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "size": args.size, "machine": machine,
                   "reasons": reasons, "metrics": metrics,
                   "traced": traced, "untraced": untraced}, f, indent=1)
    for r in reasons[:10]:
        print("hostbench: FAIL " + r)
    print("hostbench: %s seed %d size %s: %d untraced + %d traced "
          "iterations (host time, medians)"
          % (args.workload, args.seed, args.size, len(untraced),
             len(traced)))
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
