#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload walkthrough|wire_read|wire_edit \
        --seed N --seconds S --trace 0|1

Builds perfbench_e2e from the sources in this checkout (an optimised
CMake build under .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench),
runs one workload, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer one when --trace 1. A per-layer metric the workload does not
exercise (the fs phases on walkthrough, the step times on the wire) reads 0.
The line before it carries the run's diagnostics: sample counts, the host
reference kernel, steal share, nproc and build type.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("walkthrough", "wire_read", "wire_edit")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binaries; False on error."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench_e2e", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(run, trace):
    """The contract line: exactly the metrics BENCHMARK.json names."""
    correct = bool(run["correct"])
    metrics = {}
    measured = run["metrics"]
    for spec in metric_specs(trace):
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                log(f"end-to-end metric {name} was not measured")
                correct = False
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            log(f"{name} measured in {got['unit']}, BENCHMARK.json says {unit}")
            correct = False
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": correct, "attempted": int(run["attempted"]),
            "failed": int(run["failed"]), "metrics": metrics}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "perfbench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=out_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"perfbench_e2e exited with {done.returncode}")
        return 1
    run = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for err in run["errors"]:
        log("wrong result: " + err)
    print(json.dumps({"workload": run["workload"], "seed": run["seed"],
                      "trace": run["trace"], "build_type": run["build_type"],
                      "detail": run["detail"]}))
    print(json.dumps(result_line(run, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
