#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 bench/perf/run.py [--workload NAME] [--seed N]
                              [--seconds S | --reps N] [--trace 0|1]

Builds the `perf` target of the repository's own CMake project (into
.bench_build, with bench/perf/attach.cmake adding this directory),
runs each requested workload in its own process (default: every
workload in BENCHMARK.json), checks each config's fingerprint against
fingerprints.json at the workload's default seed, merges the results
into BENCH_perf.json, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  The metrics are the
end-to-end ones of BENCHMARK.json, or with --trace 1 the per-layer
ones; with several workloads each name is prefixed by its workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", build_dir, "--target", "perf", "-j", jobs]
    # A configured tree re-configures itself when a CMakeLists.txt
    # changes, and configuring again costs seconds of file I/O.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) or \
            subprocess.run(make, stdout=sys.stderr).returncode != 0:
        for cmd in (["cmake", "-S", ROOT, "-B", build_dir,
                     "-DCMAKE_PROJECT_damq_repro_INCLUDE=" +
                     os.path.join(HERE, "attach.cmake")], make):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("building the benchmark failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench", "perf")


def check_fingerprints(result, committed):
    """At the default seed, count each config whose fingerprint differs
    from the committed one as a failed warm-up run."""
    if not result["defaultSeed"]:
        return
    expected = committed.get(result["workload"], {})
    for config in result["configs"]:
        want = expected.get(config["label"])
        if want == config["fingerprint"]:
            continue
        problem = (f"{result['workload']}/{config['label']}: fingerprint "
                   f"{config['fingerprint']} differs from committed {want}")
        print(f"run.py: FAILED {problem}", file=sys.stderr)
        result["failures"].append(problem)
        if config["warmupPassed"]:
            result["failed"] += 1
    result["metrics"]["failed_ratio"]["value"] = \
        result["failed"] / result["attempted"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int,
                        help="simulation seed (default: each workload's)")
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long")
    parser.add_argument("--reps", type=int,
                        help="timed repetitions per workload (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, report per-layer metrics")
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".bench_build"))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            committed = json.load(f)
    except OSError as err:
        fail(f"cannot read the benchmark's files: {err}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(workloads) - {w["name"] for w in spec["workloads"]}
    if unknown:
        fail(f"unknown workload(s): {', '.join(sorted(unknown))}")

    binary = build(os.path.abspath(args.build_dir))
    results = []
    for name in workloads:
        out = os.path.join(os.path.abspath(args.build_dir),
                           f"perf-{name}.json")
        cmd = [binary, "--workload", name, "--json", out]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.reps is not None:
            cmd += ["--reps", str(args.reps)]
        if args.trace:
            cmd += ["--trace", os.path.join(os.path.abspath(args.build_dir),
                                            f"trace-{name}.json")]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        if code != 0:
            fail(f"{name}: perf exited with code {code}")
        with open(out) as f:
            results.append(json.load(f))
        check_fingerprints(results[-1], committed)

    with open("BENCH_perf.json", "w") as f:
        json.dump({"schema": "damq-perf-v2", "workloads": results}, f,
                  indent=2)
        f.write("\n")

    metrics = {}
    for result in results:
        measured = result["layers" if args.trace else "metrics"]
        for metric in declared:
            got = measured.get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                fail(f"{result['workload']}: metric {metric['name']} "
                     f"missing or not in {metric['unit']}")
            key = metric["name"] if len(results) == 1 else \
                f"{result['workload']}.{metric['name']}"
            metrics[key] = {"value": got["value"], "unit": got["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
