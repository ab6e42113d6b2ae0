"""One-off probes at the CLI's bounds, kept out of the timed workloads.

    python3 perfbench/probes.py

Writes perfbench/out/probes.json and prints it.  Two deterministic
probes, each traced (tracer.py), so the figures are CPU seconds and
sampler tries:

* `largest`: genus2, d=8, branch [2,2], Klein pinch, 64 scramble steps;
  time per stage (random_cover, the scramble's insert_trivial_circle
  calls, geometric_degree).
* `exhaustion`: random_cover(genus2, 8, None, seed=1) with the default
  budget of 50,000 tries, which gives up.  A d=8 cover costs from 0.2 s
  to 30 s of sampling depending on its seed, which is why the timed
  `covers` catalog stops at d=6; this probe keeps the failure on record.

Together they take about a minute.
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from surfmap import cli, covers, factorize, moves, surfaces, transverse  # noqa: E402
from surfmap.errors import Unsatisfiable  # noqa: E402
from tracer import Tracer  # noqa: E402

ROWS = ("covers.random_cover.calls", "covers.random_cover.tries",
        "covers.random_cover.time_s", "covers.random_cover.exhausted",
        "moves.insert_trivial_circle.calls", "moves.insert_trivial_circle.time_s",
        "factorize.geometric_degree.time_s", "moves.check_share")


def traced(fn):
    tracer = Tracer().install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    layers = tracer.per_layer()
    return result, {k: layers[k]["value"] for k in ROWS}


def largest():
    tri = surfaces.builtin_triangulation("genus2")
    tm = transverse.add_pinch(
        transverse.map_from_cover(covers.random_cover(tri, 8, [2, 2], seed=1)), 0,
        cli.PINCH_KINDS["klein"])
    rng = random.Random(3)
    for _ in range(64):
        ri = rng.randrange(len(tm.regions))
        tm = moves.insert_trivial_circle(
            tm, ri, rng.choice(tm.target.triangle_edges(tm.regions[ri].label)))
    return {"edges": transverse.edge_count(tm),
            "degree": factorize.geometric_degree(tm)}


def exhaustion():
    tri = surfaces.builtin_triangulation("genus2")
    try:
        covers.random_cover(tri, 8, None, seed=1)
    except Unsatisfiable as ex:
        return {"outcome": f"Unsatisfiable: {ex}"}
    return {"outcome": "found a cover"}


def main():
    out = {}
    for name, spec, fn in (
            ("largest", "genus2 d=8 branch [2,2], cover seed 1, Klein pinch, "
                        "64 scramble steps", largest),
            ("exhaustion", "random_cover(genus2, 8, None, seed=1), default "
                           "max_tries", exhaustion)):
        result, layers = traced(fn)
        out[name] = {"spec": spec, **result, "layers": layers}
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "probes.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
