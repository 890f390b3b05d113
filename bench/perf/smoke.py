#!/usr/bin/env python3
"""Smoke test of the perf binary (ctest perf_bench_smoke).

    python3 smoke.py PATH/TO/perf

Runs every workload of BENCHMARK.json once (--reps 1, default seed)
and checks that each end-to-end metric is printed with its unit, that
the result file parses, that no run failed a correctness gate and that
every fingerprint equals the committed one.  Then runs one workload
traced and checks that every per-layer metric is printed and that the
trace file parses as Chrome-trace JSON.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TRACED_WORKLOAD = "flit_torus8"

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print("FAIL:", message)


def printed(stdout, name, unit):
    pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
    return re.search(pattern, stdout, re.MULTILINE) is not None


def run(binary, workload, extra):
    out = f"smoke-{workload}.json"
    proc = subprocess.run([binary, "--workload", workload, "--reps", "1",
                           "--json", out] + extra,
                          capture_output=True, text=True)
    print(proc.stdout)
    check(proc.returncode == 0,
          f"{workload}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    with open(out) as f:
        result = json.load(f)
    check(result.get("schema") == "damq-perf-v2",
          f"{workload}: schema {result.get('schema')}")
    check(result["failed"] == 0 and result["attempted"] > 0,
          f"{workload}: {result['failed']} of {result['attempted']} runs "
          f"failed: {result['failures']}")
    return proc.stdout, result


def main(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        committed = json.load(f)

    for workload in (w["name"] for w in spec["workloads"]):
        stdout, result = run(binary, workload, [])
        for metric in spec["end_to_end"] + [
                {"name": "failed_ratio", "unit": "ratio"}]:
            check(printed(stdout, metric["name"], metric["unit"]),
                  f"{workload}: {metric['name']} not printed in "
                  f"{metric['unit']}")
        check(result["metrics"]["failed_ratio"]["value"] == 0,
              f"{workload}: failed_ratio is not 0")
        for config in result["configs"]:
            check(committed[workload].get(config["label"]) ==
                  config["fingerprint"],
                  f"{workload}/{config['label']}: fingerprint differs")

    trace = "smoke-trace.json"
    stdout, result = run(binary, TRACED_WORKLOAD, ["--trace", trace])
    for metric in spec["per_layer"]:
        check(printed(stdout, metric["name"], metric["unit"]),
              f"traced {TRACED_WORKLOAD}: {metric['name']} not printed")
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    check(len(spans) > 0, "trace holds no spans")
    check(all({"name", "ts", "dur", "pid", "tid", "args"} <= e.keys()
              for e in spans), "a span lacks a Chrome-trace field")

    if problems:
        sys.exit(f"{len(problems)} problem(s)")
    print("perf_bench_smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
