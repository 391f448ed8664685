#!/usr/bin/env python3
"""Builds the serving-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; generated models and the span dump of a traced
run go to a per-workload directory inside it. The last line of standard
output is the benchmark's JSON result; the exit code is the benchmark's
(0 only when every answer passed its check).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tenants", "session_exact", "session_pruned", "cold_start")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("run.py: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(here, os.path.join(target, "perfbench"))
    workdir = os.path.join(target, "perfbench-run", args.workload)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
