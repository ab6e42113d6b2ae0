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
