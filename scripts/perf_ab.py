#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: a base commit against the
working tree.

    scripts/perf_ab.py BASE [WORKLOAD ...]

Checks BASE out into a temporary git worktree (removed on exit) and runs the
benchmark command that BENCHMARK.json declares, `--workload W --seconds
<run_seconds>`, on the base tree and on this working tree: 10 pairs per
workload (default: every workload BENCHMARK.json lists), alternating which
side runs first. Each tree builds its own .bench_build/ on its first run;
the build is outside the timed region the benchmark reports.

For every end-to-end metric of BENCHMARK.json and every workload it prints
both medians, the base runs' interquartile range (IQR) and how many pairs
the change wins and loses (ties count for neither), then a verdict:

* better / worse -- the change wins (loses) at least 9 of the 10 pairs and
  the medians differ that way by more than the base IQR;
* REGRESSION -- the change's median is worse than the base median by more
  than the metric's bound (a share of the base median);
* same -- anything else.

It also prints each side's failed/attempted operation share and how many of
its runs printed "digest unchanged". The exit status is 1 when any metric is
a REGRESSION or the change fails a larger share of operations than the base
on any workload, else 0.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
WIN_SHARE = 0.9


def compare(base, change, better, bound):
    """Compares paired samples (base[i] and change[i] ran back to back).

    Returns (verdict, wins, losses, base IQR); wins and losses count the
    pairs the change wins and loses, ties counting for neither.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median)
    q1, _, q3 = statistics.quantiles(base, n=4)
    iqr = q3 - q1
    if -gain > bound * abs(base_median):
        verdict = "REGRESSION"
    elif wins >= WIN_SHARE * len(base) and gain > iqr:
        verdict = "better"
    elif losses >= WIN_SHARE * len(base) and -gain > iqr:
        verdict = "worse"
    else:
        verdict = "same"
    return verdict, wins, losses, iqr


def run_once(tree, command, workload, seconds):
    """One benchmark run in `tree`: (result dict, printed 'digest unchanged')."""
    proc = subprocess.run(command + ["--workload", workload, "--seconds", str(seconds)],
                          cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        # No result line (a failed build, a usage error): one failed attempt.
        sys.stderr.write(proc.stderr[-2000:])
        result = {"attempted": 1, "failed": 1, "metrics": {}}
    return result, "digest unchanged" in lines


def report(workload, metrics, base_runs, change_runs):
    """Prints one workload's comparison; returns True when it fails the A/B."""
    failed = False
    print(f"\n== {workload} ({len(base_runs)} pairs) ==")
    print(f"{'metric':<22} {'base median':>12} {'change median':>14} {'base IQR':>10} "
          f"{'wins':>5} {'losses':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for (b, _), (c, _) in zip(base_runs, change_runs)
                 if name in b["metrics"] and name in c["metrics"]]
        if len(pairs) < 2:
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        verdict, wins, losses, iqr = compare(base, change, metric["better"], metric["bound"])
        failed = failed or verdict == "REGRESSION"
        print(f"{name:<22} {statistics.median(base):>12.6g} {statistics.median(change):>14.6g} "
              f"{iqr:>10.3g} {wins:>5} {losses:>6}  {verdict}")
    shares = []
    for side, runs in (("base", base_runs), ("change", change_runs)):
        attempted = sum(r["attempted"] for r, _ in runs)
        bad = sum(r["failed"] for r, _ in runs)
        shares.append(bad / attempted if attempted else 1.0)
        unchanged = sum(1 for _, digest in runs if digest)
        print(f"{side}: failed/attempted {bad}/{attempted}, "
              f"digest unchanged in {unchanged}/{len(runs)} runs")
    if shares[1] > shares[0]:
        print("the change fails a larger share of operations than the base")
        failed = True
    return failed


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print("usage: scripts/perf_ab.py BASE [WORKLOAD ...]", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = argv[2:] or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        print(f"perf_ab: unknown workload(s) {', '.join(unknown)}; "
              f"BENCHMARK.json lists {', '.join(names)}", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    base_tree = os.path.join(tmp, "base")
    # A cancelled CI job sends SIGTERM: unwind through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", base_tree, argv[1]],
                       check=True, stdout=subprocess.DEVNULL)
        sides = {"base": base_tree, "change": ROOT}
        headline = bench["end_to_end"][0]["name"]
        failed = False
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    result, digest = run_once(sides[side], bench["command"], workload,
                                              bench["run_seconds"])
                    runs[side].append((result, digest))
                    value = result["metrics"].get(headline, {}).get("value")
                    print(f"[{workload} pair {i + 1}/{PAIRS}] {side}: {headline} {value}",
                          file=sys.stderr, flush=True)
            failed = report(workload, bench["end_to_end"], runs["base"], runs["change"]) or failed
        return 1 if failed else 0
    except subprocess.CalledProcessError as err:
        print(f"perf_ab: {err}", file=sys.stderr)
        return 2
    finally:
        # Deleting the tree and pruning removes the worktree, build and all.
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
