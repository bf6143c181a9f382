#!/usr/bin/env python3
"""Compare a change against its parent with rpsbench results.

    python3 benchmark/compare.py --parent A --child B [--pairs N]

A and B are checkouts of the two commits. With --pairs N, first run N
pairs of untraced runs per workload (seeds 1..N), alternating which
side runs first, through each checkout's benchmark/run.py, and compare
only those seeds; without it, compare every seed both checkouts have
in benchmark/results/. Only untraced, non-smoke results measured for
the child's run_seconds count. The rules below apply to every
(workload, end-to-end metric), with the bounds of the child's
BENCHMARK.json:

  improved    at least 10 pairs, the child wins at least 9/10 of them
              (ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  regressed   the child's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's spread (IQR / median) exceeds the bound,
              unless every child run beats every parent run;
  within      otherwise.

Each workload also gets a row comparing the failed share
(failed / attempted): a gain does not count when more operations fail.
The exit status is 1 when anything regressed, a run of either side
failed, a child run was incorrect or the child failed more often.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def load(checkout, seconds):
    """{(workload, seed): result} of a checkout's untraced, non-smoke
    runs of @p seconds each."""
    runs = {}
    pattern = os.path.join(checkout, "benchmark", "results", "*.json")
    for path in glob.glob(pattern):
        if path.endswith(".trace.json") or "-trace." in path:
            continue
        try:
            with open(path) as f:
                res = json.load(f)
        except (OSError, ValueError):
            continue
        meta = res.get("meta", {})
        if ("workload" not in res or meta.get("smoke") or
                meta.get("seconds") != seconds):
            continue
        runs[(res["workload"], meta["seed"])] = res
    return runs


def run_pairs(parent, child, spec, pairs):
    """Run the alternated pairs; returns the (side, workload, seed) of
    every run that exited non-zero."""
    failed = []
    for w in spec["workloads"]:
        for seed in range(1, pairs + 1):
            sides = [("parent", parent), ("child", child)]
            if seed % 2 == 0:
                sides.reverse()
            for label, side in sides:
                cmd = [sys.executable, os.path.join("benchmark", "run.py"),
                       "--workload", w["name"], "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=side,
                                      stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    failed.append((label, w["name"], seed))
    return failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, p_vals, c_vals):
    """Rule of the module docstring for one (workload, metric)."""
    higher = metric["better"] == "higher"
    sign = 1.0 if higher else -1.0
    p_lo, p_med, p_hi = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    pairs = list(zip(p_vals, c_vals))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (p_hi - p_lo) / p_med if p_med else float("inf")
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > p_hi - p_lo:
        state = "improved"
    elif -gain > metric["bound"] * abs(p_med):
        state = "regressed"
    elif spread > metric["bound"] and not all_better:
        state = "unresolved"
    else:
        state = "within"
    return {"state": state, "pairs": len(pairs), "wins": wins,
            "parent": (p_lo, p_med, p_hi), "child_median": c_med,
            "spread": spread}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--child", required=True, help="child checkout")
    p.add_argument("--pairs", type=int, default=0,
                   help="run this many alternated pairs first")
    a = p.parse_args()

    with open(os.path.join(a.child, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = False
    wanted = None
    if a.pairs:
        for side, name, seed in run_pairs(a.parent, a.child, spec, a.pairs):
            print("%-13s %s run of seed %d failed" % (name, side, seed))
            bad = True
        wanted = set(range(1, a.pairs + 1))
    seconds = spec["run_seconds"]
    parent, child = load(a.parent, seconds), load(a.child, seconds)

    print("%-13s %-12s %-10s %6s %5s %30s %12s %7s" %
          ("workload", "metric", "verdict", "pairs", "wins",
           "parent q1 / median / q3", "child median", "spread"))
    for w in spec["workloads"]:
        name = w["name"]
        seeds = sorted(s for (wl, s) in parent if wl == name and
                       (wl, s) in child and (wanted is None or s in wanted))
        if not seeds:
            print("%-13s no paired runs" % name)
            continue
        pr = [parent[(name, s)] for s in seeds]
        cr = [child[(name, s)] for s in seeds]
        if not all(r["correct"] for r in cr):
            print("%-13s child run incorrect" % name)
            bad = True
        for m in spec["end_to_end"]:
            p_vals = [r["metrics"][m["name"]]["value"] for r in pr]
            c_vals = [r["metrics"][m["name"]]["value"] for r in cr]
            v = verdict(m, p_vals, c_vals)
            bad |= v["state"] == "regressed"
            print("%-13s %-12s %-10s %6d %5d %9.4g / %9.4g / %9.4g %12.4g %6.1f%%" %
                  (name, m["name"], v["state"], v["pairs"], v["wins"],
                   v["parent"][0], v["parent"][1], v["parent"][2],
                   v["child_median"], 100 * v["spread"]))
        share = [sum(r["failed"] for r in rs) /
                 max(1, sum(r["attempted"] for r in rs)) for rs in (pr, cr)]
        worse = share[1] > share[0]
        bad |= worse
        print("%-13s %-12s %-10s %6d %5s %30.6f %12.6f" %
              (name, "failed_frac", "worse" if worse else "ok", len(seeds),
               "", share[0], share[1]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
