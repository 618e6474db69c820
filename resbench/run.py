#!/usr/bin/env python3
"""Builds bench_resinfer from this source tree and runs one workload.

Run from the repository root:

    python3 resbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 resbench/run.py --smoke      # every workload, small, traced and not

The build goes to $CARGO_TARGET_DIR/resbench (default .bench_build/resbench)
and is reused by later runs. The last line of standard output is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

On any failure the script exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ivf-opq-batch", "ivf-opq-serve", "hnsw-res-query",
             "ivf-pca-restart"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("resbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "resbench")


def build():
    """Configures (once) and builds bench_resinfer; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no resinfer sources next to resbench/ (CMakeLists.txt, src/)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", out, "--target", "bench_resinfer",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)
    exe = os.path.join(out, "bench_resinfer")
    if not os.path.isfile(exe):
        fail("build produced no bench_resinfer")
    return exe


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            raise ValueError("unexpected metric keys")
    return result


def run(exe, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (result object, output lines)."""
    work = os.path.join(build_dir(), "work")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        result = parse_result(lines[-1])
    except (IndexError, ValueError) as e:
        sys.stderr.write(proc.stdout)
        fail("%s printed no valid result: %s" % (workload, e))
    if echo:
        for line in lines[:-1]:
            print(line)
    return result, lines


def smoke(exe):
    """Every workload at n = 5000 with 2 s phases, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run(exe, workload, 1, 2, trace, smoke=True, echo=False)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print("%-16s trace=%d correct=%s attempted=%d failed=%d" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
    if not ok:
        fail("smoke run found incorrect results")
    print("smoke: all workloads correct")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    exe = build()
    if args.smoke:
        smoke(exe)
        return
    _, lines = run(exe, args.workload, args.seed, args.seconds, args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
