#!/usr/bin/env python3
"""Paired comparison of two checkouts on one workload.

    python3 bench/compare.py BASE HEAD --workload rates-dense --pairs 10

BASE and HEAD are checkout roots, each holding BENCHMARK.json, bench/ and
src/. Each side runs its own bench/run.py; a change that claims a gain may
not edit the benchmark, so both carry the same benchmark code. Pair i runs
seed ``--first-seed + i`` untraced on both sides, alternating which side
runs first. The host's slow phases last minutes, so they fall on both
sides of a pair alike: unpaired sets of runs an hour apart differed by up
to 35% on this benchmark (bench/README.md), more than its bounds.

For each end-to-end metric the report gives each side's median and
quartiles, the ratio of medians head / base, the median and quartiles of
the per-pair ratios, the number of pairs head wins (ties count for
neither) and a verdict:

* ``gain``: head wins at least 9 in 10 pairs, and its median is better
  than base's by more than the quartile distance of base's own runs;
* ``regression``: head's median is worse than base's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: base's own spread is wider than the bound and head does
  not beat every base run;
* ``within bound`` otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300


def run(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"compare: {root} failed on seed {seed}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    b1, b2, b3 = quartiles(base)
    h2 = statistics.median(head)
    wins = sum(h < b if lower else h > b for b, h in zip(base, head))
    worse = (h2 - b2 if lower else b2 - h2) / b2
    beats_all = (max(head) < min(base)) if lower else (min(head) > max(base))
    if wins >= 0.9 * len(base) and -worse * b2 > b3 - b1:
        return wins, "gain"
    if worse > metric["bound"]:
        return wins, "regression"
    if (b3 - b1) / b2 > metric["bound"] and not beats_all:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    results = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            results[side].append(run(getattr(args, side), args.workload,
                                     args.first_seed + i, args.seconds))

    print(f"# {args.workload}: {args.pairs} pairs, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}, "
          f"--seconds {args.seconds}")
    for side, runs in results.items():
        print(f"# {side} {getattr(args, side)}: checks failed "
              f"{sum(r['failed'] for r in runs)} / "
              f"{sum(r['attempted'] for r in runs)}")
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        base, head = ([r["metrics"][name]["value"] for r in results[side]]
                      for side in ("base", "head"))
        wins, outcome = verdict(metric, base, head)
        b, h = quartiles(base), quartiles(head)
        p = quartiles([y / x for x, y in zip(base, head)])
        print(f"{name:20s} base {b[1]:.4g} ({b[0]:.4g}-{b[2]:.4g})  "
              f"head {h[1]:.4g} ({h[0]:.4g}-{h[2]:.4g})  "
              f"head/base {h[1] / b[1]:.4f}  "
              f"paired {p[1]:.4f} ({p[0]:.4f}-{p[2]:.4f})  "
              f"head wins {wins}/{args.pairs}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
