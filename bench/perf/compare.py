#!/usr/bin/env python3
"""A/B verdicts from alternating parent/change benchmark runs.

    python3 bench/perf/compare.py P1.json C1.json P2.json C2.json ...

Each argument is a BENCH_perf.json written by run.py (or one
workload's file written by the perf binary).  Files alternate parent,
change, parent, change, ... with each parent/change couple run back to
back (alternate which side runs first between couples).  For every
(workload, metric) the script prints both sides' median and quartiles,
the change's share of won pairs (ties count for neither) and a
verdict against the end-to-end bounds of BENCHMARK.json.  The
tolerance of a metric is its bound times the parent's median, and at
least the metric's absolute floor below (setup_s: 5 ms, so that a
sub-millisecond set-up cannot fail a change on noise):

  improved    the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's quartile spread
  unresolved  the parent's or change's quartile spread is wider than
              the tolerance
  worse       the change's median is worse than the parent's by more
              than the tolerance
  unchanged   otherwise

Per-layer metrics (traced runs) have no bound and get no verdict.
Exits 1 when any verdict is "worse".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Smallest change, in the metric's unit, that can count as worse.
ABSOLUTE_FLOOR = {"setup_s": 0.005}


def workload_results(path):
    with open(path) as f:
        data = json.load(f)
    return {w["workload"]: w for w in data.get("workloads", [data])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, floor):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    if bound is None:
        return wins, "-"
    if (wins >= 0.9 * len(parent) and sign * (med_c - med_p) > 0
            and abs(med_c - med_p) > q3_p - q1_p):
        return wins, "improved"
    tolerance = max(bound * abs(med_p), floor)
    if q3_p - q1_p > tolerance or q3_c - q1_c > tolerance:
        return wins, "unresolved"
    if -sign * (med_c - med_p) > tolerance:
        return wins, "worse"
    return wins, "unchanged"


def main(paths):
    if len(paths) < 2 or len(paths) % 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = [workload_results(p) for p in paths]
    parents, changes = runs[0::2], runs[1::2]
    metrics = [(m, "metrics") for m in spec["end_to_end"]] + \
        [(m, "layers") for m in spec["per_layer"]]
    any_worse = False
    print(f"{len(parents)} parent/change pairs")
    print(f"{'workload':18} {'metric':34} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'change':>8} {'wins':>6}  "
          "verdict")
    for workload in runs[0]:
        for metric, section in metrics:
            name = metric["name"]
            try:
                p = [r[workload][section][name]["value"] for r in parents]
                c = [r[workload][section][name]["value"] for r in changes]
            except KeyError:
                continue
            wins, v = verdict(p, c, metric["better"], metric.get("bound"),
                              ABSOLUTE_FLOOR.get(name, 0.0))
            any_worse |= v == "worse"
            med_p, med_c = statistics.median(p), statistics.median(c)
            delta = (med_c - med_p) / med_p if med_p else float("nan")
            side = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:18} {name:34} "
                  f"{side.format(med_p, *quartiles(p)):34} "
                  f"{side.format(med_c, *quartiles(c)):34} "
                  f"{delta:>+8.2%} {wins:>3}/{len(p):<2}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
