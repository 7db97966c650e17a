#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for before/after claims.

    python3 tools/pairs.py PARENT CHANGE --workload obstacle_cli \\
        --seeds 61-72 --seconds 8

PARENT and CHANGE are the roots of two source checkouts.  For each seed of
the range, one pair of runs: ``bench/run.py --trace 0`` of that workload and
seed in each checkout, each in a fresh process, the parent first in even
pairs and the change first in odd ones.  Every run is printed as it ends
(its end-to-end metrics, failed operations and result digest).  At the end
the script prints, for each end-to-end metric of the parent's
BENCHMARK.json: both medians, the parent's quartiles and their distance,
the change in percent, and the pairs the change won, ties counting for
neither side.  It exits 1 when a run exits non-zero or prints no result,
and prints a warning when the two sides of a pair disagree on the digest or
a run fails an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_range(text):
    """'61-72' or '5' as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def run_once(root, workload, seed, seconds):
    """One ``bench/run.py --trace 0`` run: (metrics, failed, digest)."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((ln.split()[-1] for ln in lines
                   if ln.startswith(f"# {workload} digest ")), None)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["failed"], digest


def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="seed range, one pair per seed, e.g. 61-72")
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            metrics, failed, digests[side] = run_once(
                roots[side], args.workload, seed, args.seconds)
            runs[side].append(metrics)
            shown = " ".join(f"{m['name']}={metrics[m['name']]:.6g}"
                             for m in end_to_end if m["name"] in metrics)
            print(f"pair {i} seed {seed} {side}: {shown} failed={failed} "
                  f"digest={(digests[side] or '?')[:12]}", flush=True)
            if failed:
                print(f"warning: {side} failed {failed} operations "
                      f"at seed {seed}")
        if digests["parent"] != digests["change"]:
            print(f"warning: digests differ at seed {seed}")

    n = len(args.seeds)
    print(f"\n{args.workload}, {n} pairs, --seconds {args.seconds:g}")
    print(f"{'metric':<16}{'parent':>12}{'quartiles':>24}{'IQR':>10}"
          f"{'change':>12}{'delta':>9}{'won':>10}")
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        if name not in runs["parent"][0]:
            continue
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a) if n > 1 else (a[0], a[0])
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        delta = (med_b - med_a) / med_a * 100 if med_a else float("nan")
        print(f"{name:<16}{med_a:>12.6g}{f'{q1:.6g}-{q3:.6g}':>24}"
              f"{q3 - q1:>10.3g}{med_b:>12.6g}{delta:>8.1f}%"
              f"{f'{won}/{n}':>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
