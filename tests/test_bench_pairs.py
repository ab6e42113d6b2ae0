"""tools/bench_pairs.py with one checkout on both sides, two operations
per pass."""

import json
import subprocess
import sys
from pathlib import Path

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
