"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories (or single files) of
`*.result.json` written by run.py, e.g. one per seed for the parent
commit and one per seed for the change.  For each workload and each
end-to-end metric of BENCHMARK.json it prints both medians and
quartiles, the pairs AFTER won (runs are paired by seed), and a
verdict:

  better      AFTER wins at least 9/10 of the pairs and the medians differ
              by more than BEFORE's own spread (its interquartile range);
  worse       AFTER's median is worse than BEFORE's by more than the bound;
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every AFTER run beats every BEFORE run;
  same        otherwise: no regression beyond the bound, no gain shown.

Traced results (--trace 1), when both sides have them, get one line per
per-layer metric with the two medians.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.result.json")))
             if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(before, after, pairs, bound, higher):
    def better(x, y):
        return x > y if higher else x < y

    med_b, med_a = statistics.median(before), statistics.median(after)
    q1_b, q3_b = quartiles(before)
    q1_a, q3_a = quartiles(after)
    won = sum(better(a, b) for b, a in pairs)
    worse_by = (med_b - med_a if higher else med_a - med_b) / med_b if med_b else 0.0
    all_better = all(better(a, b) for a in after for b in before)
    if all_better and won >= 0.9 * len(pairs):
        return "better", won
    if (q3_b - q1_b) / med_b > bound or (q3_a - q1_a) / med_a > bound:
        return "unresolved", won
    if worse_by > bound:
        return "worse", won
    if won >= 0.9 * len(pairs) and abs(med_a - med_b) > q3_b - q1_b:
        return "better", won
    return "same", won


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    before, after = load(argv[0]), load(argv[1])
    workloads = sorted({w for (w, t) in before} & {w for (w, t) in after})
    print(f"{'workload':8} {'metric':20} {'before: median [q1, q3]':34} "
          f"{'after: median [q1, q3]':34} {'won':>6}  verdict")
    for w in workloads:
        b_runs, a_runs = before.get((w, 0), {}), after.get((w, 0), {})
        seeds = sorted(set(b_runs) & set(a_runs))
        if not seeds:
            # unpaired: pair by rank of seed
            seeds = list(zip(sorted(b_runs), sorted(a_runs)))
        else:
            seeds = [(s, s) for s in seeds]
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            av = [r["metrics"][name]["value"] for r in a_runs.values()]
            if not bv or not av:
                continue
            pairs = [(b_runs[sb]["metrics"][name]["value"],
                      a_runs[sa]["metrics"][name]["value"]) for sb, sa in seeds]
            v, won = verdict(bv, av, pairs, m["bound"], m["better"] == "higher")
            qb, qa = quartiles(bv), quartiles(av)
            before_s = f"{statistics.median(bv):.5g} [{qb[0]:.5g}, {qb[1]:.5g}]"
            after_s = f"{statistics.median(av):.5g} [{qa[0]:.5g}, {qa[1]:.5g}]"
            print(f"{w:8} {name:20} {before_s:34} {after_s:34} "
                  f"{won:>3}/{len(pairs):<2}  {v} "
                  f"(bound {m['bound']:.0%}, {m['unit']}, {m['better']} is better)")
        failed_b = sum(r["failed"] for r in b_runs.values())
        failed_a = sum(r["failed"] for r in a_runs.values())
        if failed_a > failed_b:
            print(f"{w:8} failed operations rose from {failed_b} to {failed_a}: "
                  f"no gain counts")
        tb, ta = before.get((w, 1), {}), after.get((w, 1), {})
        if tb and ta:
            for layer in bench["per_layer"]:
                name = layer["name"]
                mb = statistics.median(r["metrics"][name]["value"] for r in tb.values())
                ma = statistics.median(r["metrics"][name]["value"] for r in ta.values())
                if mb or ma:
                    print(f"{w:8}   {name:52} {mb:12.5g} -> {ma:12.5g} {layer['unit']}")


if __name__ == "__main__":
    main()
