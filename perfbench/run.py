#!/usr/bin/env python3
"""Build the steady benchmark from source, run one workload, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny]

Run from the root of a checkout. The first run configures and builds
minihpx plus the perfbench binary into .bench_build/perfbench (Release);
later runs only re-check the build. Build output goes to stderr, the
binary's output to stdout. The last stdout line is its JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when the build succeeded, every iteration matched its reference and
the result line is well-formed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fib-observed", "stencil", "burst")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("minihpx sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and all(isinstance(m.get("value"), (int, float))
                    and isinstance(m.get("unit"), str)
                    for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--git-sha={git_sha()}"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 3

    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        log(f"perfbench exited with code {done.returncode}")
        return done.returncode if done.returncode > 0 else 3
    if not lines or not valid_result(lines[-1]):
        log("perfbench printed no well-formed result line")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
