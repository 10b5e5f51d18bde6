#!/usr/bin/env python3
"""Builds the perfbench package (Release) and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload port_churn --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run in a checkout compiles the stack.
Build output goes to stderr; stdout carries the benchmark's report, whose
last line is the JSON result.  The exit code is the benchmark's: 0 when every
correctness check passed, 1 when one failed, 2 when the benchmark could not
be built or was called wrongly.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("port_churn", "bulk_reconfig", "packet_learn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every source file the benchmark compiles or is."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "snvs", "snvs.cc")):
        fail("the stack's sources (src/) are not next to the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    trace_dir = os.path.join(ROOT, target, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)

    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_SHA256=source_digest())
    sys.stdout.flush()
    result = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--trace-dir", trace_dir],
        env=env, check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
