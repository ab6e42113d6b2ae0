"""tools/move_scale.py at its smallest size."""

import importlib.util
from pathlib import Path

from surfmap import moves, transverse

ROOT = Path(__file__).resolve().parent.parent


def _move_scale():
    spec = importlib.util.spec_from_file_location("move_scale",
                                                  ROOT / "tools" / "move_scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_size_times_every_move_it_makes():
    tool = _move_scale()
    originals = [getattr(moves, name) for name in tool.MOVES]
    solves = (transverse._solve, transverse._derive_solve)
    row = tool.measure(tool.STEPS[0])
    assert [getattr(moves, name) for name in tool.MOVES] == originals
    assert (transverse._solve, transverse._derive_solve) == solves
    assert (row["steps"], row["edges"], row["regions"]) == (64, 220, 168)
    assert row["scramble"].keys() == {"insert_trivial_circle"}
    assert row["normalize"].keys() == {"join_isolated_circle"}
    for phase in ("scramble", "normalize"):
        timing, = row[phase].values()
        assert timing["count"] == 64 and timing["ms_per_move"] > 0
    assert row["normalize_ms"] > 0
    # every insert and join derives its result's solve from its input's;
    # the first insert also derives the pinched map's, from the lift's
    assert row["solves"] == {"scramble": {"whole": 0, "derived": 65},
                             "normalize": {"whole": 0, "derived": 64}}
