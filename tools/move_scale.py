"""Time each move kind on one map scrambled to three sizes.

    python3 tools/move_scale.py

The map is `generate composite --base genus2 --d 4 --seed 1 --pinch
torus` (156 edges).  It is scrambled by 64, 256 and 1,024 trivial-circle
insertions (the loop of `generate scramble`, seeded with 3, with no cap
on the step count), which gives 220, 412 and 1,180 edges, and each
scramble is normalized.  Prints one JSON list, one object per size: its
steps, edges and regions after the scramble, the `normalize` time, per
phase (scramble, normalize) and per move kind the calls and the
process-time milliseconds per call, and per phase the domain solves
made from scratch ("whole", transverse._solve) and derived from the
input's ("derived", transverse._derive_solve, the ones its certificate
passed).  Both phases run under perfbench/tracer.py's `Tracer`, and the
solves are counted by wrappers installed at run time, so nothing under
src/ has hooks; a move's time includes the spans of the self-checks it
calls.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from surfmap import moves, transverse  # noqa: E402
from surfmap.covers import random_cover  # noqa: E402
from surfmap.surfaces import SurfaceKind, builtin_triangulation  # noqa: E402
from tracer import MOVES, Tracer  # noqa: E402

STEPS = (64, 256, 1024)


def traced(fn):
    """`fn()`'s result, its per-layer figures, per move kind it made the
    calls and the ms per call, and the whole and derived solves made."""
    solves = {"whole": 0, "derived": 0}
    whole, derive = transverse._solve, transverse._derive_solve

    def counted_whole(*args):
        solves["whole"] += 1
        return whole(*args)

    def counted_derive(*args):
        out = derive(*args)
        solves["derived"] += out is not None
        return out

    tracer = Tracer().install()
    transverse._solve, transverse._derive_solve = counted_whole, counted_derive
    try:
        result = fn()
    finally:
        transverse._solve, transverse._derive_solve = whole, derive
        tracer.uninstall()
    layers = tracer.per_layer()
    made = {}
    for name in MOVES:
        calls = layers[f"moves.{name}.calls"]["value"]
        if calls:
            made[name] = {"count": calls, "ms_per_move": round(
                layers[f"moves.{name}.time_s"]["value"] / calls * 1e3, 4)}
    return result, layers, made, solves


def measure(steps: int) -> dict:
    """The scramble of the composite by `steps` insertions and its
    normalization."""
    tm = transverse.map_from_cover(random_cover(builtin_triangulation("genus2"),
                                                4, None, seed=1))
    tm = transverse.add_pinch(tm, 0, SurfaceKind(True, handles=1))

    def scramble():
        work = tm
        rng = random.Random(3)
        for _ in range(steps):
            ri = rng.randrange(len(work.regions))
            edges = work.target.triangle_edges(work.regions[ri].label)
            work = moves.insert_trivial_circle(work, ri, rng.choice(edges))
        return work

    work, _, scrambled, scramble_solves = traced(scramble)
    _, layers, normalized, normalize_solves = traced(lambda: moves.normalize(work))
    return {"steps": steps, "edges": transverse.edge_count(work),
            "regions": len(work.regions),
            "normalize_ms": round(layers["moves.normalize.time_s"]["value"] * 1e3, 1),
            "scramble": scrambled, "normalize": normalized,
            "solves": {"scramble": scramble_solves, "normalize": normalize_solves}}


def main():
    print(json.dumps([measure(n) for n in STEPS], indent=1))


if __name__ == "__main__":
    main()
