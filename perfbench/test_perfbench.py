#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py          # about a minute
    PERFBENCH_SLOW=1 python3 perfbench/test_perfbench.py   # + every workload
                                                            #   on both recorded seeds

They build the benchmark binary through run.py, then check:
  * the binary's own self-test: the generator is deterministic per seed, the
    property guard and the invariant checker reject corrupted inputs and
    results, and the traced runners reproduce the untraced digests;
  * every metric name and unit the binary declares and prints matches
    BENCHMARK.json;
  * a checkout without the simulator sources fails without a result;
  * (slow) the correctness gate passes on the default and the held-out seed,
    with the recorded digests.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DEFAULT_SEED, HELD_OUT_SEED = 1, 7919


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def bench(workload, seed, seconds, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_binary_self_test(self):
        proc = subprocess.run([run.BINARY, "--self-test"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_declared_metrics_match_benchmark_json(self):
        out = subprocess.run([run.BINARY, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        listed = {"end_to_end": {}, "per_layer": {}}
        for line in out.splitlines():
            kind, name, unit = line.split()
            listed[kind][name] = unit
        self.assertEqual(listed["end_to_end"], declared("end_to_end"))
        self.assertEqual(listed["per_layer"], declared("per_layer"))

    def test_printed_metrics_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS),
                         sorted(["llc_thrash", "io_dispatch", "numa_complex", "fleet_churn"]))
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("numa_complex", DEFAULT_SEED, 1, trace)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, declared(kind))

    def test_fails_without_simulator_sources(self):
        os.makedirs(run.BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "llc_thrash", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{") for l in proc.stdout.splitlines()))

    @unittest.skipUnless(os.environ.get("PERFBENCH_SLOW"), "set PERFBENCH_SLOW=1")
    def test_gate_passes_on_default_and_held_out_seeds(self):
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                proc = bench(workload, seed, 1, 0)
                self.assertEqual(proc.returncode, 0, proc.stdout)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertIn("digest unchanged", proc.stdout)


if __name__ == "__main__":
    unittest.main()
