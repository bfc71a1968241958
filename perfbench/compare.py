#!/usr/bin/env python3
"""Compare two checkouts on the perfbench end-to-end metrics.

    python3 perfbench/compare.py BASE NEW [--workloads a,b]

BASE and NEW are checkout roots (the parent commit and the change). For
each workload the command runs ten alternating pairs (BASE first in even
pairs, NEW first in odd ones; both sides of a pair use the same seed),
each run lasting run_seconds of NEW's BENCHMARK.json, and prints one row
per workload and metric:

  better / worse   the medians differ by more than BASE's interquartile
                   spread AND one side wins at least 9/10 of the pairs
  regressed        NEW's median is worse than BASE's by more than the
                   metric's bound in BENCHMARK.json
  unresolved       BASE's own spread exceeds the bound, so neither a
                   change nor its absence can be claimed
  same             none of the above

Bounds and directions come from NEW's BENCHMARK.json. Exits 1 when any
row is "regressed" or any run failed its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Alternating pairs per workload; the 9-of-10 wins rule assumes ten.
PAIRS = 10
SEED0 = 1000


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with "
                         f"{r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def verdict(base, new, better, bound):
    """Classify NEW against BASE for one metric (lists of run values in
    pair order; better is "higher" or "lower")."""
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(base, n=4)
    bmed, nmed = statistics.median(base), statistics.median(new)
    spread = (q3 - q1) / abs(bmed) if bmed else float("inf")
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    # A spread wider than the bound resolves nothing, unless every NEW
    # run reads better (or worse) than every BASE run.
    separated = max(new) < min(base) or min(new) > max(base)
    if spread > bound and not separated:
        return "unresolved", spread, wins, losses
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return "regressed", spread, wins, losses
    if abs(nmed - bmed) > q3 - q1:
        if wins >= 0.9 * len(base):
            return "better", spread, wins, losses
        if losses >= 0.9 * len(base):
            return "worse", spread, wins, losses
    return "same", spread, wins, losses


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(args.new, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    failed = False
    rows = []
    for w in workloads:
        runs = {"base": [], "new": []}
        for i in range(PAIRS):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                res = run_once(getattr(args, side), w, SEED0 + i, seconds)
                failed |= not res["correct"] or res["failed"] > 0
                runs[side].append(res["metrics"])
        for m in spec["end_to_end"]:
            base = [r[m["name"]]["value"] for r in runs["base"]]
            new = [r[m["name"]]["value"] for r in runs["new"]]
            v, spread, wins, losses = verdict(base, new, m["better"],
                                              m["bound"])
            rows.append((w, m["name"], m["unit"], statistics.median(base),
                         statistics.median(new), spread, wins, losses, v))

    print(f"{'workload':12s} {'metric':16s} {'unit':14s} {'base':>12s} "
          f"{'new':>12s} {'base_iqr':>8s} {'wins':>5s} {'loss':>5s} verdict")
    for w, n, u, b, nv, sp, wi, lo, v in rows:
        print(f"{w:12s} {n:16s} {u:14s} {b:12.5g} {nv:12.5g} {sp:8.3f} "
              f"{wi:5d} {lo:5d} {v}")
    if failed:
        print("some runs failed their output checks")
    return 1 if failed or any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
