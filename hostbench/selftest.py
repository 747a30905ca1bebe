#!/usr/bin/env python3
"""Self-test of the host-performance benchmark (tiny workload sizes).

Usage (from the repository root):

    python3 hostbench/selftest.py

Checks, for every workload at --size tiny:
  * run.py prints a correct result whose metrics are exactly the
    end-to-end metrics of BENCHMARK.json (--trace 0) or exactly its
    per-layer metrics (--trace 1), each with its declared unit;
  * every per-layer metric is produced by at least one workload;
  * the exact counts (server.events, cluster.routed,
    cstate.idle_entries, ...) repeat bit for bit across two runs,
    across 1 vs 2 fleet threads, and between traced and untraced
    runs;
and that run.py exits non-zero without a result when the simulator
sources are absent (a directory holding only BENCHMARK.json and
hostbench/). Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself)

SEED = 7
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)


def run_py(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "hostbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


def main():
    end_to_end, per_layer = run.load_metric_specs()
    produced = set()
    for workload in run.WORKLOADS:
        for trace, specs in ((0, end_to_end), (1, per_layer)):
            proc = run_py(workload, trace)
            check(proc.returncode == 0,
                  "%s trace %d exited %d" % (workload, trace,
                                             proc.returncode))
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace %d: not correct" % (workload, trace))
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in specs),
                  "%s trace %d: metric names differ from "
                  "BENCHMARK.json" % (workload, trace))
            for m in specs:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"]
                      and isinstance(got.get("value"), (int, float)),
                      "%s: %s lacks its value or unit %s"
                      % (workload, m["name"], m["unit"]))

        # Exact counts: two runs, 1 vs 2 fleet threads, traced.
        runs = [run.run_driver(workload, SEED, False, True),
                run.run_driver(workload, SEED, False, True),
                run.run_driver(workload, SEED, False, True,
                               fleet_threads=1),
                run.run_driver(workload, SEED, True, True)]
        check(all(r is not None for r in runs),
              workload + ": driver failed")
        if all(r is not None for r in runs):
            counts = [r["counts"] for r in runs]
            check(all(c == counts[0] for c in counts),
                  "%s: exact counts differ: %s" % (workload, counts))
            check("server.events" in counts[0],
                  workload + ": no server.events count")
            if workload.startswith("fleet"):
                check("cluster.routed" in counts[0]
                      and "cstate.idle_entries" in counts[0],
                      workload + ": fleet counts missing")
            produced.update(runs[3]["counts"], runs[3]["layers"])

    missing = {m["name"] for m in per_layer} - produced - {
        "bench.trace_overhead_s"}  # computed by run.py itself
    check(not missing, "per-layer metrics no workload produces: %s"
          % sorted(missing))

    # Without the simulator sources the benchmark must fail cleanly.
    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py("server_grid", 0, cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "bare directory: run.py did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("selftest: FAIL " + f)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
