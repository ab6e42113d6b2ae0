"""Run the benchmark in two checkouts in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE OUT --workload W[,W...] \
        --seeds 11-20 [--seconds 25] [--limit K]

PARENT and CHANGE are checkouts of the two commits, each with its own
perfbench/.  `--workload` takes one workload or a comma-separated list
(`corpus,covers,bounds`), run one after the other in the order given.
For every workload and seed in turn, perfbench/run.py runs untraced
(`--trace 0`) in both, each in its own checkout and interpreter, so both
sides of a pair see the same machine.  The side that runs first
alternates: within each workload, PARENT on the even-indexed seeds of
the range (the first, the third, ...), CHANGE on the odd-indexed ones,
so a warm-up effect on the first run of a pair does not favour one side
in every pair.  Each run's `*.result.json` is copied into OUT/parent or
OUT/change, the two directories that tools/bench_record.py and
perfbench/compare.py read:

    python3 tools/bench_record.py OUT/parent OUT/change BENCH.json

`--limit` caps the operations per pass, as run.py's does; the smoke
test uses it.  A run that fails stops the whole sequence.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

SIDES = ("parent", "change")


def seed_range(text: str) -> list:
    """'11-20' -> [11, ..., 20]; '7' -> [7]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def workload_list(text: str) -> list:
    """'corpus,covers' -> ['corpus', 'covers']; names are checked by run.py."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"bad workload list {text!r}")
    return names


def run_one(checkout: str, workload: str, seed: int, seconds: float, limit) -> str:
    """Run the checkout's benchmark once; the path of its result file."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return os.path.join(checkout, "perfbench", "out",
                        f"{workload}-seed{seed}-trace0.result.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("out")
    p.add_argument("--workload", type=workload_list, required=True)
    p.add_argument("--seeds", type=seed_range, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--limit", type=int, default=None)
    args = p.parse_args(argv)
    for side in SIDES:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    sides = list(zip(SIDES, (args.parent, args.change)))
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                result = run_one(os.path.abspath(checkout), workload, seed,
                                 args.seconds, args.limit)
                shutil.copy(result, os.path.join(args.out, side))
                print(f"{workload} seed {seed} {side}: {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
