#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json files across commits.

Compares the bench artifacts of an old (baseline) and a new run:

* **Breakage** (exit 1): a sweep, summary metric, cell, or per-group metric
  name that existed in the baseline is gone, or a document lost a required
  top-level key. Renames and removals break every consumer keyed on those
  names, so they must be deliberate (update the baseline expectations in
  the same PR).
* Additions (new sweeps, metrics, cells) are reported as info.

Summary metric *values* are printed with their deltas for human review;
only names are contractual. When GITHUB_ACTIONS is set, breakages are also
emitted as ::error:: workflow annotations. Wall times are not compared:
two runs on different machines are not a speed comparison (the same-runner
one is scripts/perf_ab.py).

Usage: scripts/bench_diff.py OLD_DIR NEW_DIR
"""

import argparse
import glob
import json
import os
import sys

REQUIRED_KEYS = ("bench", "options", "summary", "cells")


def annotate(level, message):
    print(f"{level.upper()}: {message}")
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::{level}::{message}")


def load_benches(path):
    """Returns {bench_name: doc} for every BENCH_*.json under path."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "BENCH_*.json"), recursive=True))
    else:
        files = [path]
    out = {}
    for f in files:
        # A corrupt or truncated capture (killed run, partial copy) must not
        # take the whole diff down with it: warn, skip, diff the rest.
        try:
            with open(f, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:
            annotate("warning", f"skipping unreadable bench file {f}: {err}")
            continue
        if not isinstance(doc, dict):
            annotate("warning", f"skipping {f}: top-level JSON is not an object")
            continue
        out[doc.get("bench", os.path.basename(f))] = doc
    return out


def cell_metrics(cell):
    """{(group, metric_name)} for one cell."""
    names = set()
    for group in cell.get("groups", []):
        for metric in group.get("metrics", {}):
            names.add((group.get("name", "?"), metric))
    return names


def diff_bench(name, old, new, breakages):
    for key in REQUIRED_KEYS:
        if key in old and key not in new:
            breakages.append(f"{name}: lost required key '{key}'")
    # Summary metric names are the sweep's public contract.
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for metric in old_summary:
        if metric not in new_summary:
            breakages.append(f"{name}: summary metric '{metric}' disappeared")
    for metric in sorted(set(new_summary) - set(old_summary)):
        print(f"info: {name}: new summary metric '{metric}' = {new_summary[metric]}")
    for metric, old_value in sorted(old_summary.items()):
        new_value = new_summary.get(metric)
        if new_value is None or new_value == old_value:
            continue
        delta = ""
        if isinstance(old_value, (int, float)) and isinstance(new_value, (int, float)) and old_value:
            delta = f" ({100.0 * (new_value - old_value) / abs(old_value):+.1f}%)"
        print(f"info: {name}: summary '{metric}': {old_value} -> {new_value}{delta}")

    old_cells = {c["id"]: c for c in old.get("cells", []) if "id" in c}
    new_cells = {c["id"]: c for c in new.get("cells", []) if "id" in c}
    for cell_id, old_cell in old_cells.items():
        new_cell = new_cells.get(cell_id)
        if new_cell is None:
            breakages.append(f"{name}: cell '{cell_id}' disappeared")
            continue
        for group, metric in sorted(cell_metrics(old_cell) - cell_metrics(new_cell)):
            breakages.append(f"{name}: cell '{cell_id}' group '{group}' lost metric '{metric}'")
    added = len(set(new_cells) - set(old_cells))
    if added:
        print(f"info: {name}: {added} new cells")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline dir (or file) of BENCH_*.json")
    parser.add_argument("new", help="candidate dir (or file) of BENCH_*.json")
    args = parser.parse_args()

    old_benches = load_benches(args.old)
    new_benches = load_benches(args.new)
    if not old_benches:
        print(f"bench_diff: no baseline BENCH_*.json under {args.old}; nothing to compare")
        return 0

    breakages = []
    for name in sorted(old_benches):
        if name not in new_benches:
            breakages.append(f"sweep '{name}' disappeared from the artifacts")
            continue
        diff_bench(name, old_benches[name], new_benches[name], breakages)
    for name in sorted(set(new_benches) - set(old_benches)):
        print(f"info: new sweep '{name}' ({len(new_benches[name].get('cells', []))} cells)")

    for message in breakages:
        annotate("error", message)
    print(f"bench_diff: {len(old_benches)} baseline sweeps, {len(breakages)} breakages")
    return 1 if breakages else 0


if __name__ == "__main__":
    sys.exit(main())
