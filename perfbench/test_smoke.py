"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with two operations per
pass.  The untraced run must print every end-to-end metric of
BENCHMARK.json with its unit (and the report lines for the metrics that
are not bounded: latency_p90_ms and fail_ratio); the traced run must
print every per-layer metric.  A copy of the benchmark without the
program must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
REPORTED = ("wall_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "fail_ratio",
            "peak_rss_mb", "setup_s")


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--limit", "2"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines[:-1]
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    names = [m["name"] for m in expected] + ([] if trace else list(REPORTED))
    for name in names:
        assert any(f"] {name} = " in line for line in lines[:-1]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(str(tmp_path), "corpus", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
