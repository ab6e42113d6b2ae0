"""tools/bench_record.py over two synthetic perfbench result directories."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results(path, sha, src_lines):
    """Three untraced `corpus` runs (seeds 1-3) of one commit, every
    end-to-end metric reading 10 plus the seed."""
    path.mkdir()
    for seed in (1, 2, 3):
        run = {"workload": "corpus", "trace": 0, "seed": seed,
               "meta": {"git_sha": sha, "src_lines": src_lines},
               "attempted": 10, "failed": 0,
               "metrics": {name: {"value": 10.0 + seed} for name in METRICS}}
        (path / f"corpus-seed{seed}-trace0.result.json").write_text(json.dumps(run))
    return str(path)


def test_each_side_records_its_sha_and_source_size(tmp_path):
    out = _bench_record().record(_results(tmp_path / "before", "aaa", 5240),
                                 _results(tmp_path / "after", "bbb", 5180))
    assert out["before"] == {"git_sha": ["aaa"], "src_lines": [5240]}
    assert out["after"] == {"git_sha": ["bbb"], "src_lines": [5180]}
    corpus = out["workloads"]["corpus"]
    assert corpus["seeds"] == [(1, 1), (2, 2), (3, 3)]
    assert set(corpus["metrics"]) == set(METRICS)
    assert corpus["metrics"]["norm_cpu_s"]["before"]["median"] == 12.0


def test_traced_runs_on_both_sides_give_per_layer_medians(tmp_path):
    """Traced runs add a `traced` row per per-layer metric either side
    reads nonzero; they change no end-to-end figure."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in bench["per_layer"]]
    sides = []
    for side, base in (("before", 1.0), ("after", 0.5)):
        path = Path(_results(tmp_path / side, side, 5000))
        for seed in (7, 8):
            values = {name: 0.0 for name in layers}
            values["covers.assemble_total_space.time_s"] = base * seed
            run = {"workload": "corpus", "trace": 1, "seed": seed,
                   "meta": {"git_sha": side, "src_lines": 5000},
                   "attempted": 10, "failed": 0,
                   "metrics": {name: {"value": v} for name, v in values.items()}}
            (path / f"corpus-seed{seed}-trace1.result.json").write_text(json.dumps(run))
        sides.append(str(path))
    out = _bench_record().record(*sides)
    corpus = out["workloads"]["corpus"]
    assert corpus["traced"] == {"covers.assemble_total_space.time_s": {
        "unit": "s", "before": 7.5, "after": 3.75, "runs": [2, 2]}}
    assert corpus["metrics"]["norm_cpu_s"]["before"]["median"] == 12.0
    untraced = _bench_record().record(_results(tmp_path / "b", "aaa", 1),
                                      _results(tmp_path / "a", "bbb", 1))
    assert "traced" not in untraced["workloads"]["corpus"]
