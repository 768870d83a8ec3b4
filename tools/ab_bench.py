#!/usr/bin/env python3
"""Paired comparison of two checkouts on one benchmark workload.

Usage:
    python tools/ab_bench.py BASE CHANGE --workload lasso-grid [--seed 0]
                             [--pairs 10] [--seconds 30] [--out pairs.json]

BASE and CHANGE are two checkouts of the repository. Put them side by side
under one directory: where a checkout lives can move a workload's times by a
few per cent. Each pair runs ``perfbench/run.py --trace 0`` once in each
checkout, from that checkout's root. Pair i starts with BASE when i is even
and with CHANGE when it is odd, so a drift in the host's speed falls on both
sides alike. A pair's value of a metric is the median that run.py reports.

For each end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles over the pairs and the pairs that CHANGE wins. It also
says whether the gain rule holds: CHANGE is better in at least nine of every
ten pairs, over ten pairs or more, and its median beats BASE's by more than
BASE's interquartile range. A run that reports ``"correct": false`` is named,
and its pair still counts. ``--out`` writes every pair's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) of ``values``, with perfbench's quartile method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def decide(base, change, better):
    """The comparison of one metric over paired runs: ``base[i]`` and ``change[i]`` are pair i.

    ``better`` is "lower" or "higher". Returns the quartiles of both sides,
    ``wins`` (the pairs in which the change is strictly better), ``gap`` (the
    base's median less the change's, signed so that a gain is positive) and
    ``gain``: at least MIN_PAIRS pairs, wins in at least nine of every ten and
    a gap larger than the base's interquartile range.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of runs on both sides, at least one")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b_q, c_q = quartiles(base), quartiles(change)
    gap = sign * (b_q[1] - c_q[1])
    gain = len(base) >= MIN_PAIRS and 10 * wins >= 9 * len(base) and gap > b_q[2] - b_q[0]
    return {"base": b_q, "change": c_q, "wins": wins, "pairs": len(base), "gap": gap,
            "gain": gain}


def run_once(checkout, workload, seed, seconds):
    """The last stdout line of ``perfbench/run.py`` in ``checkout``, as a dict."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": args.base, "change": args.change}
    values = {side: {name: [] for name in metrics} for side in sides}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            report = run_once(sides[side], args.workload, args.seed, args.seconds)
            if not report["correct"]:
                print(f"pair {i}: {side} reported correct = false", file=sys.stderr)
            for name in metrics:
                values[side][name].append(report["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs}: solve_s base {values['base']['solve_s'][-1]:.6g}"
              f" change {values['change']['solve_s'][-1]:.6g}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':16s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'wins':>6s}  gain")
    for name, better in metrics.items():
        d = decide(values["base"][name], values["change"][name], better)
        fmt = "/".join(f"{v:.4g}" for v in d["base"]), "/".join(f"{v:.4g}" for v in d["change"])
        print(f"{name:16s} {fmt[0]:>32s} {fmt[1]:>32s} {d['wins']:>3d}/{d['pairs']:<2d}  "
              f"{'yes' if d['gain'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
