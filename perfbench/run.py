#!/usr/bin/env python3
"""The floq benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced

Builds the floq library, the `floq` CLI and the benchmark program from source
(Release, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs
one workload, prints every metric it measured by name and unit, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"} holding the
metrics BENCHMARK.json lists: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1 (0 for a layer the workload never calls).

Exits 1 after printing the result when an answer was wrong, and with
another non-zero code, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(REPO, "perfbench")
BUILD = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                    os.path.join(REPO, ".bench_build")), "perfbench")
RUN_TIMEOUT_S = 170
# Every workload the benchmark program knows. BENCHMARK.json lists the ones
# steady enough to gate on; serve_registry_growth is run on request and by
# the no-argument form.
WORKLOADS = ("classify_batch", "serve_registry_growth", "serve_mixed")


def build():
    """Configures once and builds the two targets; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "floq_perfbench", "floq_cli"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_workload(config, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    work_dir = os.path.join(BUILD, "runs")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(BUILD, "floq_perfbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--floq", os.path.join(BUILD, "floq_tools", "floq"),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, None
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"perfbench: {workload} failed with exit code "
              f"{done.returncode}", file=sys.stderr)
        return done.returncode or 3, None
    for line in lines[:-1]:
        print(line)
    measured = json.loads(lines[-1])
    wanted = config["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        found = measured["metrics"].get(metric["name"])
        if found is None and not trace:
            print(f"perfbench: {workload} did not measure {metric['name']}",
                  file=sys.stderr)
            return 3, None
        metrics[metric["name"]] = {
            "value": found["value"] if found else 0,
            "unit": metric["unit"]}
    result = {"correct": measured["correct"],
              "attempted": measured["attempted"],
              "failed": measured["failed"],
              "metrics": metrics}
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            config = json.load(f)
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    seconds = args.seconds or config["run_seconds"]
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        if args.workload is None:
            print(f"== {workload}")
        code, result = run_workload(config, workload, args.seed, seconds,
                                    args.trace)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
