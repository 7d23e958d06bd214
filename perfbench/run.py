#!/usr/bin/env python3
"""Build and run the AQL_Sched benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds the simulator library (from src/) and
the benchmark binary (perfbench/cc/) into .bench_build/ with CMake in
Release mode; later runs rebuild only what changed. Build output goes to
stderr. The binary's output is passed through unchanged; its last line is
the result JSON. Before that line the script reports whether the result
digest matches the one recorded in perfbench/digests.json for the workload
and seed, so a change meant to be speed-only shows "digest unchanged".

Workloads: llc_thrash, io_dispatch, numa_complex, fleet_churn. The
default seed is 1; seed 7919 is held out (see perfbench/README.md).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "aql_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "aql_perfbench", "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def digest_note(line):
    """'digest WORKLOAD seed N: HEX' -> a comparison with digests.json."""
    try:
        head, value = line.split(": ", 1)
        _, workload, _, seed = head.split()
        with open(DIGESTS) as f:
            recorded = json.load(f).get(workload, {}).get(seed)
    except (OSError, ValueError):
        return "digest reference unreadable"
    if recorded is None:
        return "digest not recorded for this seed"
    if recorded == value.strip():
        return "digest unchanged"
    return "digest changed: simulated results differ from perfbench/digests.json"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    for line in lines[:-1] if result else lines:
        print(line)
        if line.startswith("digest "):
            print(digest_note(line))
    if result is None:
        # The binary died before printing a result (a simulator check aborted
        # the process): report the run as one failed attempt.
        # A usage error (exit 2) prints no result on purpose.
        print(f"perfbench: aql_perfbench exited with {proc.returncode} and no result", file=sys.stderr)
        if proc.returncode == 2:
            return 2
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
