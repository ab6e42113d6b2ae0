"""tools/bench_pairs.py with one checkout on both sides, two operations
per pass."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pairs_alternate_and_land_where_bench_record_reads_them(tmp_path):
    out = tmp_path / "pairs"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT),
         str(out), "--workload", "covers", "--seeds", "3-4", "--seconds", "1",
         "--limit", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the parent first on the first seed, the change first on the second
    order = [line.split(": ")[0] for line in proc.stdout.splitlines()]
    assert order == ["covers seed 3 parent", "covers seed 3 change",
                     "covers seed 4 change", "covers seed 4 parent"]
    for side in ("parent", "change"):
        files = sorted(p.name for p in (out / side).iterdir())
        assert files == ["covers-seed3-trace0.result.json",
                         "covers-seed4-trace0.result.json"]
        for name in files:
            run = json.loads((out / side / name).read_text())
            assert run["trace"] == 0 and run["failed"] == 0
    record = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), str(out / "parent"),
         str(out / "change"), str(tmp_path / "bench.json")],
        capture_output=True, text=True, timeout=60)
    assert record.returncode == 0, record.stderr
    bench = json.loads((tmp_path / "bench.json").read_text())
    assert bench["workloads"]["covers"]["seeds"] == [[3, 3], [4, 4]]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_takes_a_comma_separated_list():
    bench_pairs = _bench_pairs()
    assert bench_pairs.workload_list("covers") == ["covers"]
    assert bench_pairs.workload_list("corpus,covers,bounds") == \
        ["corpus", "covers", "bounds"]
    assert bench_pairs.workload_list("corpus, bounds") == ["corpus", "bounds"]
    for bad in ("", "corpus,", ",covers", "covers,,bounds", "covers,covers"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.workload_list(bad)


def test_a_workload_list_runs_each_workload_in_alternating_pairs(tmp_path, monkeypatch):
    """Workloads in the order given, each over the whole seed range, the
    parent first on the first seed of each."""
    bench_pairs = _bench_pairs()
    runs = []

    def run_one(checkout, workload, seed, seconds, limit):
        runs.append((os.path.basename(checkout), workload, seed))
        result = tmp_path / f"{os.path.basename(checkout)}-{workload}-{seed}.result.json"
        result.write_text("{}")
        return str(result)

    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    parent, change = tmp_path / "p", tmp_path / "c"
    assert bench_pairs.main([str(parent), str(change), str(tmp_path / "out"),
                             "--workload", "bounds,covers", "--seeds", "5-6"]) == 0
    assert runs == [("p", "bounds", 5), ("c", "bounds", 5),
                    ("c", "bounds", 6), ("p", "bounds", 6),
                    ("p", "covers", 5), ("c", "covers", 5),
                    ("c", "covers", 6), ("p", "covers", 6)]
    assert len(list((tmp_path / "out" / "parent").iterdir())) == 4
