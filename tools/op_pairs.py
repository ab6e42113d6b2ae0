"""Time two checkouts' benchmark operations interleaved in one interpreter.

    python3 tools/op_pairs.py PARENT CHANGE --workload W [--rounds N] [--limit K]

PARENT and CHANGE are checkouts of two commits.  Each side's `surfmap`
(from its src/) and `perfbench/workloads.py` are imported under a module
set of their own: the side's directories go first on sys.path, and its
modules leave sys.modules once loaded, so the two coexist and each side's
code calls only its own.  No bytecode is written into either checkout.

Each side sets up its workload (a `bounds` side writes its map files
into a temporary directory of its own) and runs every catalog operation
once untimed, to warm both.  Each round then runs every operation on
both sides back to back, in catalog order; PARENT goes first in the even
rounds (the first, the third, ...) and CHANGE in the odd ones.  An
operation's time is the process CPU time of its call.  The output gives
each round's CPU total per side, the medians over the rounds, their
ratio (CHANGE over PARENT) and the rounds CHANGE won.

Every answer, warm-up included, goes through both sides' `answer_record`
(the fields the benchmark's stored answers keep); the run stops with
exit 1 at the first operation whose two records differ.  `--limit` runs
only the first K catalog operations.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time

SIDES = ("parent", "change")


def _is_side_module(name: str) -> bool:
    return name in ("workloads", "surfmap") or name.startswith("surfmap.")


def _take_side_modules() -> dict:
    """Remove the workloads and surfmap modules from sys.modules and
    return them, by name."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if _is_side_module(name)}


def load_workloads(checkout: str):
    """The checkout's perfbench/workloads.py, importing its own surfmap,
    loaded under a module set that leaves sys.modules when it is done;
    the modules there before are put back."""
    saved_path, saved_modules = sys.path[:], _take_side_modules()
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        _take_side_modules()
        sys.modules.update(saved_modules)


class Side:
    """One checkout's workload: its catalog and a call per operation."""

    def __init__(self, checkout: str, workload: str, limit, workdir: str):
        self.wl = wl = load_workloads(checkout)
        self.workload = workload
        specs = wl.catalog(workload)
        self.specs = specs[:limit] if limit else specs
        if workload == "bounds":
            wl.bounds_setup(workdir)
            self.op = lambda spec: wl.bounds_op(spec, workdir)
        else:
            self.op = getattr(wl, f"{workload}_op")

    def run(self, i: int):
        """(the CPU seconds of operation i, its answer record or None)."""
        c0 = time.process_time()
        ans = self.op(self.specs[i])
        cpu = time.process_time() - c0
        return cpu, None if ans is None else self.wl.answer_record(self.workload, ans)


def run_round(sides: dict, order: tuple, n_ops: int) -> dict:
    """Every operation on both sides back to back, `order` first to last;
    each side's CPU total.  Exits at the first pair of differing answers."""
    totals = dict.fromkeys(order, 0.0)
    for i in range(n_ops):
        records = {}
        for side in order:
            cpu, records[side] = sides[side].run(i)
            totals[side] += cpu
        if records["parent"] != records["change"]:
            raise SystemExit(f"answers differ on {sides['parent'].specs[i]['key']}: "
                             f"parent {records['parent']!r}, change {records['change']!r}")
    return totals


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=("corpus", "covers", "bounds"))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--limit", type=int, default=None)
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            workdir = os.path.join(tmp, side)
            os.mkdir(workdir)
            sides[side] = Side(os.path.abspath(checkout), args.workload, args.limit,
                               workdir)
        keys = [[spec["key"] for spec in sides[side].specs] for side in SIDES]
        if keys[0] != keys[1]:
            raise SystemExit("the two checkouts' catalogs differ")
        n_ops = len(keys[0])
        run_round(sides, SIDES, n_ops)                   # warm-up
        rows = []
        for r in range(args.rounds):
            totals = run_round(sides, SIDES if r % 2 == 0 else SIDES[::-1], n_ops)
            rows.append(totals)
            print(f"round {r}: parent {totals['parent']:.4f} s, "
                  f"change {totals['change']:.4f} s", flush=True)
    medians = {side: statistics.median(row[side] for row in rows) for side in SIDES}
    won = sum(row["change"] < row["parent"] for row in rows)
    print(f"{args.workload}: {n_ops} operations, {args.rounds} rounds")
    print(f"median CPU: parent {medians['parent']:.4f} s, change {medians['change']:.4f} s")
    print(f"ratio {medians['change'] / medians['parent']:.4f}, "
          f"change won {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
