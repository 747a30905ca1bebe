#!/usr/bin/env python3
"""Gate simulation-kernel speed against a stored awperf baseline.

Usage:
    check_perf.py CURRENT.json BASELINE.json [--max-regression 2.0]
                  [--metric events_per_s]

Both files must be aw-perf/1 documents written by `awperf --json`
(see docs/PERFORMANCE.md for the schema). For every scenario present
in the baseline, the current throughput metric must be no worse than
baseline/METRIC > MAX_REGRESSION would imply; the generous default
threshold (2x) exists so shared-CI-runner noise and hardware
differences cannot flake the gate while real kernel regressions --
which historically show up as integer factors -- still trip it.

The deterministic counters are gated exactly: a scenario's `events`
and `requests` (per-run values, independent of --repeat) must equal
the baseline's. They do not depend on the host, so any difference
means the simulation itself changed; a deliberate model change
regenerates the baseline in the same commit.

Exit status: 0 = pass, 1 = regression or schema violation.
"""

import argparse
import json
import math
import sys

SCHEMA = "aw-perf/1"

#: Keys every scenario entry must carry, with the type they must
#: parse as. Changing this set is a schema change: bump SCHEMA and
#: docs/PERFORMANCE.md together.
REQUIRED_KEYS = {
    "name": str,
    "repeat": int,
    "wall_s": float,
    "sim_s": float,
    "events": int,
    "requests": int,
    "sim_per_wall": float,
    "events_per_s": float,
    "requests_per_s": float,
}

THROUGHPUT_METRICS = ("sim_per_wall", "events_per_s",
                      "requests_per_s")

#: Simulated counters that must match the baseline exactly.
EXACT_COUNTERS = ("events", "requests")


def load(path):
    """Parse and schema-check one aw-perf/1 document."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema is {doc.get('schema')!r}, "
            f"expected {SCHEMA!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ValueError(f"{path}: 'scenarios' must be a non-empty "
                         "list")
    by_name = {}
    for entry in scenarios:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: scenario entries must be "
                             "objects")
        for key, typ in REQUIRED_KEYS.items():
            if key not in entry:
                raise ValueError(
                    f"{path}: scenario {entry.get('name')!r} "
                    f"missing key {key!r}")
            value = entry[key]
            if typ is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, typ):
                raise ValueError(
                    f"{path}: scenario {entry.get('name')!r} key "
                    f"{key!r} is {type(entry[key]).__name__}, "
                    f"expected {typ.__name__}")
            # json.load() happily parses NaN/Infinity literals, and
            # NaN would then sail through the ratio comparison below
            # (any comparison with NaN is False) -- a malformed
            # document must be a schema error, not a silent pass.
            if typ in (int, float) and not math.isfinite(value):
                raise ValueError(
                    f"{path}: scenario {entry.get('name')!r} key "
                    f"{key!r} is {value!r}, expected a finite "
                    "number")
            if typ in (int, float) and value < 0:
                raise ValueError(
                    f"{path}: scenario {entry.get('name')!r} key "
                    f"{key!r} is negative ({value!r})")
        name = entry["name"]
        if name in by_name:
            raise ValueError(f"{path}: duplicate scenario {name!r}")
        by_name[name] = entry
    return by_name


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", help="awperf --json output of "
                        "this build")
    parser.add_argument("baseline", help="stored baseline (e.g. "
                        "bench/baselines/perf_baseline.json)")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when baseline/current exceeds "
                        "this factor (default: 2.0)")
    parser.add_argument("--metric", default="events_per_s",
                        choices=THROUGHPUT_METRICS,
                        help="throughput metric to gate on "
                        "(default: events_per_s)")
    args = parser.parse_args()

    if args.max_regression <= 1.0:
        parser.error("--max-regression must be > 1.0")

    try:
        current = load(args.current)
        baseline = load(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"check_perf: FAIL: {err}", file=sys.stderr)
        return 1

    failures = []
    print(f"check_perf: metric={args.metric} "
          f"max-regression={args.max_regression:g}x")
    # The scenario column fits the longest name in either document.
    width = max(len(name) for name in ["scenario", *baseline, *current])
    header = (f"{'scenario':<{width}} {'baseline':>12} {'current':>12} "
              f"{'ratio':>7}  verdict")
    print(header)
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"scenario {name!r} missing from "
                            f"{args.current}")
            print(f"{name:<{width}} {base[args.metric]:>12.4g} "
                  f"{'-':>12} {'-':>7}  MISSING")
            continue
        base_v = float(base[args.metric])
        cur_v = float(cur[args.metric])
        if base_v <= 0.0:
            # A zero-events baseline entry can never gate anything
            # (every ratio would be 0): that is a broken baseline,
            # not a pass -- and guarding here also keeps the ratio
            # below away from a 0/0.
            failures.append(f"scenario {name!r}: non-positive "
                            f"baseline {args.metric} "
                            f"({base_v:.4g}); regenerate the "
                            f"baseline")
            verdict, ratio_str = "FAIL", "-"
        elif cur_v <= 0.0:
            failures.append(f"scenario {name!r}: non-positive "
                            f"current {args.metric}")
            verdict, ratio_str = "FAIL", "-"
        else:
            ratio = base_v / cur_v
            ratio_str = f"{ratio:.2f}x"
            if ratio > args.max_regression:
                failures.append(
                    f"scenario {name!r}: {args.metric} regressed "
                    f"{ratio:.2f}x (baseline {base_v:.4g}, current "
                    f"{cur_v:.4g})")
                verdict = "FAIL"
            else:
                verdict = "ok"
        for key in EXACT_COUNTERS:
            if cur[key] != base[key]:
                failures.append(
                    f"scenario {name!r}: {key} is {cur[key]}, "
                    f"baseline {base[key]} (exact counter: the "
                    f"simulation changed; regenerate the baseline "
                    f"only for a deliberate model change)")
                verdict = "FAIL"
        print(f"{name:<{width}} {base_v:>12.4g} {cur_v:>12.4g} "
              f"{ratio_str:>7}  {verdict}")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}} {'-':>12} "
              f"{float(current[name][args.metric]):>12.4g} "
              f"{'-':>7}  new (not gated)")

    if failures:
        for failure in failures:
            print(f"check_perf: FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_perf: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
