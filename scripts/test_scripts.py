#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py and scripts/perf_ab.py (stdlib unittest).

    python3 scripts/test_scripts.py

bench_diff.py runs as a subprocess on synthetic BENCH_*.json sets.
perf_ab.py's verdict rule is checked on synthetic samples, and the whole
script runs once end to end in a throwaway git repository whose benchmark
command is a stub, so no simulator is built.
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_ab  # noqa: E402

DOC = {
    "bench": "fig5_validation",
    "options": {"quick": True},
    "summary": {"consistency_ok": 24, "mean_normalized": 0.9},
    "cells": [
        {"id": "mcf/xen", "groups": [{"name": "vm0", "metrics": {"perf": 1.0}}]},
        {"id": "mcf/aql", "groups": [{"name": "vm0", "metrics": {"perf": 1.1}}]},
    ],
}


def write_set(directory, docs):
    os.makedirs(directory, exist_ok=True)
    for doc in docs:
        with open(os.path.join(directory, f"BENCH_{doc['bench']}.json"), "w") as f:
            json.dump(doc, f)


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.old = os.path.join(self.tmp, "old")
        self.new = os.path.join(self.tmp, "new")
        write_set(self.old, [DOC])

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def diff(self, new_doc):
        write_set(self.new, [new_doc])
        env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_diff.py"), self.old, self.new],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)

    def test_identical_sets_pass(self):
        self.assertEqual(self.diff(DOC).returncode, 0)

    def test_lost_summary_metric_fails(self):
        doc = copy.deepcopy(DOC)
        del doc["summary"]["mean_normalized"]
        proc = self.diff(doc)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("summary metric 'mean_normalized' disappeared", proc.stdout)

    def test_lost_cell_fails(self):
        doc = copy.deepcopy(DOC)
        doc["cells"].pop()
        proc = self.diff(doc)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("cell 'mcf/aql' disappeared", proc.stdout)

    def test_lost_group_metric_fails(self):
        doc = copy.deepcopy(DOC)
        doc["cells"][0]["groups"][0]["metrics"] = {"perf_renamed": 1.0}
        proc = self.diff(doc)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("cell 'mcf/xen' group 'vm0' lost metric 'perf'", proc.stdout)

    def test_lost_sweep_fails(self):
        doc = copy.deepcopy(DOC)
        doc["bench"] = "fig6_effectiveness"
        proc = self.diff(doc)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("sweep 'fig5_validation' disappeared", proc.stdout)

    def test_additions_and_value_changes_pass(self):
        doc = copy.deepcopy(DOC)
        doc["summary"]["new_metric"] = 1
        doc["summary"]["mean_normalized"] = 0.99
        doc["cells"].append({"id": "hmmer/xen", "groups": []})
        doc["cells"][0]["groups"][0]["metrics"]["extra"] = 2.0
        write_set(self.new, [{**DOC, "bench": "trace_replay"}])
        proc = self.diff(doc)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("new summary metric 'new_metric'", proc.stdout)
        self.assertIn("summary 'mean_normalized': 0.9 -> 0.99 (+10.0%)", proc.stdout)
        self.assertIn("1 new cells", proc.stdout)
        self.assertIn("new sweep 'trace_replay'", proc.stdout)

    def test_unreadable_and_non_object_files_are_skipped(self):
        write_set(self.new, [DOC])
        with open(os.path.join(self.new, "BENCH_truncated.json"), "w") as f:
            f.write('{"bench": "fig5_vali')
        with open(os.path.join(self.new, "BENCH_list.json"), "w") as f:
            f.write("[1, 2]")
        proc = self.diff(DOC)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("WARNING: skipping unreadable bench file", proc.stdout)
        self.assertIn("top-level JSON is not an object", proc.stdout)


def noisy(rng, centre, noise, n=10):
    return [centre * (1.0 + rng.gauss(0.0, noise)) for _ in range(n)]


class VerdictTest(unittest.TestCase):
    def verdict(self, base, change, better="higher", bound=0.25):
        return perf_ab.compare(base, change, better, bound)[0]

    def test_ten_percent_slowdown_in_three_percent_noise_is_worse(self):
        rng = random.Random(1)
        self.assertEqual(self.verdict(noisy(rng, 100.0, 0.03), noisy(rng, 90.0, 0.03)), "worse")

    def test_ten_percent_gain_on_a_lower_is_better_metric_is_better(self):
        rng = random.Random(2)
        self.assertEqual(self.verdict(noisy(rng, 1.0, 0.03), noisy(rng, 0.9, 0.03),
                                      better="lower"), "better")

    def test_two_draws_from_one_distribution_are_same(self):
        rng = random.Random(3)
        self.assertEqual(self.verdict(noisy(rng, 100.0, 0.03), noisy(rng, 100.0, 0.03)), "same")

    def test_all_ties_are_same(self):
        verdict, wins, losses, iqr = perf_ab.compare([0.9875] * 10, [0.9875] * 10, "higher", 0.15)
        self.assertEqual((verdict, wins, losses, iqr), ("same", 0, 0, 0.0))

    def test_median_past_the_bound_is_a_regression(self):
        rng = random.Random(4)
        self.assertEqual(self.verdict(noisy(rng, 100.0, 0.03), noisy(rng, 70.0, 0.03)),
                         "REGRESSION")
        self.assertEqual(self.verdict([10.0] * 10, [11.5] * 10, better="lower", bound=0.1),
                         "REGRESSION")


class WitnessTest(unittest.TestCase):
    def test_warns_only_when_the_kernel_moved(self):
        self.assertEqual(len(perf_ab.witness("0x30", "0x30")), 1)
        moved = perf_ab.witness("0x30", "0x00")
        self.assertIn("base 0x30, change 0x00", moved[0])
        self.assertIn("sim_speed and setup_s are confounded", moved[1])


# Stub benchmark: prints a fixed result; in a tree holding a file named
# FAIL it reports 2 of 100 operations failed, and in one holding a file
# named MOVED it prints another result digest.
STUB_RUN = '''import json, os
failed = 2 if os.path.exists("FAIL") else 0
print("digest stub seed 1: " + ("5eed" if os.path.exists("MOVED") else "c0de"))
print("digest unchanged")
print(json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                  "metrics": {"sim_speed": {"value": 700.0, "unit": "sim_s/s"}}}))
'''


@unittest.skipUnless(shutil.which("git"), "git not installed")
class PerfAbScriptTest(unittest.TestCase):
    def setUp(self):
        self.repo = tempfile.mkdtemp()
        os.makedirs(os.path.join(self.repo, "scripts"))
        shutil.copy(os.path.join(HERE, "perf_ab.py"), os.path.join(self.repo, "scripts"))
        with open(os.path.join(self.repo, "stub_run.py"), "w") as f:
            f.write(STUB_RUN)
        with open(os.path.join(self.repo, "BENCHMARK.json"), "w") as f:
            json.dump({"command": [sys.executable, "stub_run.py"], "run_seconds": 1,
                       "workloads": [{"name": "stub"}],
                       "end_to_end": [{"name": "sim_speed", "better": "higher",
                                       "bound": 0.25}]}, f)
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")

    def tearDown(self):
        shutil.rmtree(self.repo)

    def git(self, *args):
        return subprocess.run(["git", "-C", self.repo] + list(args), check=True,
                              stdout=subprocess.PIPE, text=True).stdout

    def ab(self):
        return subprocess.run(
            [sys.executable, os.path.join(self.repo, "scripts", "perf_ab.py"), "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)

    def test_no_op_passes_and_removes_its_worktree(self):
        proc = self.ab()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertRegex(proc.stdout, r"sim_speed +700 +700 +0 +0 +0  same")
        self.assertIn("change: failed/attempted 0/1000, digest unchanged in 10/10 runs",
                      proc.stdout)
        self.assertIn("digests equal base vs change in 10/10 pairs", proc.stdout)
        self.assertEqual(len(self.git("worktree", "list").splitlines()), 1)
        # The stub has no benchmark binary: the witness reads "unknown" on
        # both sides, which is no reason to warn or to fail.
        self.assertIn("ReferenceSliceSeconds address mod 64: base unknown, change unknown",
                      proc.stdout)
        self.assertNotIn("confounded", proc.stdout)

    def test_different_digests_are_counted_and_change_no_verdict(self):
        open(os.path.join(self.repo, "MOVED"), "w").close()
        proc = self.ab()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("digests equal base vs change in 0/10 pairs", proc.stdout)
        self.assertRegex(proc.stdout, r"sim_speed +700 +700 +0 +0 +0  same")

    def test_larger_failed_share_exits_1(self):
        open(os.path.join(self.repo, "FAIL"), "w").close()
        proc = self.ab()
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("change: failed/attempted 20/1000", proc.stdout)
        self.assertIn("fails a larger share of operations", proc.stdout)


if __name__ == "__main__":
    unittest.main()
