#!/usr/bin/env python3
"""Check every hostbench workload against hostbench/reference.json.

Usage (from the repository root):

    python3 scripts/check_hostbench_reference.py

Runs `hostbench/run.py --workload W --seed 42 --seconds 1` at full
size for each workload. On that pinned seed run.py compares every
grid point's simulated outputs with hostbench/reference.json, so a
change that moves any simulated byte of the benchmark fails here.

Each workload reports `correct`, `WRONG` (run.py's result line says
`"correct": false`: a simulated output left the reference) or
`FAILED` (run.py exited non-zero or printed no result line: a build
or run error, such as a stale `.bench_build/` CMake cache, not a
reference mismatch).

Exit status: 0 = every workload reported `"correct": true`, 1 = not.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "hostbench"))
import run  # noqa: E402  (the benchmark itself)


def main():
    failed = []
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
             "--workload", workload, "--seed", str(run.PINNED_SEED),
             "--seconds", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            correct = json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError, TypeError):
            correct = None
        if proc.returncode != 0 or correct is None:
            verdict = ("FAILED (exit %d): build or run error, not a "
                       "reference mismatch" % proc.returncode)
        elif correct is True:
            verdict = "correct"
        else:
            verdict = "WRONG"
        print("%s: %s" % (workload, verdict))
        if verdict != "correct":
            sys.stderr.write(proc.stdout + proc.stderr)
            failed.append(workload)
    if failed:
        print("hostbench reference not confirmed: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
