"""tools/move_scale.py at its smallest size."""

import importlib.util
from pathlib import Path

from surfmap import moves

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
    row = tool.measure(tool.STEPS[0])
    assert [getattr(moves, name) for name in tool.MOVES] == originals
    assert (row["steps"], row["edges"], row["regions"]) == (64, 220, 168)
    assert row["scramble"].keys() == {"insert_trivial_circle"}
    assert row["normalize"].keys() == {"join_isolated_circle"}
    for phase in ("scramble", "normalize"):
        timing, = row[phase].values()
        assert timing["count"] == 64 and timing["ms_per_move"] > 0
    assert row["normalize_ms"] > 0
