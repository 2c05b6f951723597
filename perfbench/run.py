#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen     # rewrite perfbench/reference/
    python3 perfbench/run.py --test      # the benchmark's own tests

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the simulator library from src/) as a Release build
under .bench_build/perfbench; later calls rebuild incrementally. Runs
write scratch files under .bench_out/. The last line of standard
output is the result object; see perfbench/README.md.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Wall budget of everything after the build: set-up probes and the run.
RUN_BUDGET_S = 170
# Extra processes that only set up; setup_s is the median of their
# set-up times and the run's own.
SETUP_PROBES = 4


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; False on any failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_binary(cmd, deadline):
    """Run the benchmark binary; (comment lines, result) or None.

    The spawn time is passed on, so the binary's set-up time starts
    when its process does.
    """
    try:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_BUDGET_S)
        return None
    if proc.returncode != 0:
        log("%s exited with %d" % (cmd[0], proc.returncode))
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        log("the last output line is not JSON")
        return None
    if set(res) != {"correct", "attempted", "failed", "values"}:
        log("binary result keys are %s" % sorted(res))
        return None
    return lines[:-1], res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen", action="store_true",
                    help="recompute perfbench/reference/")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        if not build("perfbench_test"):
            log("build failed")
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                              cwd=ROOT).returncode
    if not build("perfbench"):
        log("build failed")
        return 2
    binary = os.path.join(BUILD, "perfbench")
    if args.regen:
        return subprocess.run(
            [binary, "--regen", os.path.join("perfbench", "reference")],
            cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")

    # BENCHMARK.json is the one list of metrics and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ref", os.path.join("perfbench", "reference"),
           "--out", ".bench_out", "--commit", git_commit()]
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_binary(cmd + ["--setup-only", "1"], deadline)
            if probe is None:
                return 1
            probes.append(probe[1])
    run = run_binary(cmd, deadline)
    if run is None:
        return 1
    comments, res = run

    values = res["values"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        log("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
        return 1
    if not args.trace:
        values["setup_s"] = statistics.median(
            [p["values"]["setup_s"] for p in probes] + [values["setup_s"]])
        missing = {m["name"] for m in spec} - set(values)
        if missing:
            log("end-to-end metrics not measured: %s" % sorted(missing))
            return 1
    attempted = res["attempted"] + sum(p["attempted"] for p in probes)
    failed = res["failed"] + sum(p["failed"] for p in probes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A per-layer metric of a layer the workload does not run is 0.
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in spec},
    }
    print("\n".join(comments), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
