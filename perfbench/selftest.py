#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at tiny size for one
second, untraced and traced, through perfbench/run.py. Asserts that
each run exits 0, that every end-to-end metric (untraced) and every
per-layer metric (traced) in BENCHMARK.json is printed with its unit,
and that no iteration failed (failed_frac is 0). Exits 1 on the first
violation, with the offending output on stderr.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, output=""):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    if output:
        print(output, file=sys.stderr)
    sys.exit(1)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where}: exit code {done.returncode}",
             done.stdout + done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"] != 0 or not result["correct"]:
        fail(f"{where}: failed_frac is {result['failed']}/"
             f"{result['attempted']}", done.stdout)
    printed = result["metrics"]
    for spec in expected:
        got = printed.get(spec["name"])
        if got is None:
            fail(f"{where}: metric {spec['name']} not printed", done.stdout)
        if got["unit"] != spec["unit"]:
            fail(f"{where}: {spec['name']} has unit {got['unit']!r}, "
                 f"BENCHMARK.json says {spec['unit']!r}")
    extra = set(printed) - {spec["name"] for spec in expected}
    if extra:
        fail(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    print(f"selftest: ok  {where}: {len(printed)} metrics, "
          f"{result['attempted']} iterations, 0 failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in bench["workloads"]:
        check_run(workload["name"], 0, bench["end_to_end"])
        check_run(workload["name"], 1, bench["per_layer"])
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
