#!/usr/bin/env python3
"""Check every hostbench workload against hostbench/reference.json.

Usage (from the repository root):

    python3 scripts/check_hostbench_reference.py

Runs `hostbench/run.py --workload W --seed 42 --seconds 1` at full
size for each workload. On that pinned seed run.py compares every
grid point's simulated outputs with hostbench/reference.json, so a
change that moves any simulated byte of the benchmark fails here.

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
            correct = json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            correct = False
        print("%s: %s" % (workload, "correct" if correct else "WRONG"))
        if not correct:
            sys.stderr.write(proc.stdout + proc.stderr)
            failed.append(workload)
    if failed:
        print("hostbench reference mismatch: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
