"""tools/op_pairs.py: the repository against itself, and two stub
checkouts whose answers differ."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _op_pairs():
    spec = importlib.util.spec_from_file_location("op_pairs", ROOT / "tools" / "op_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "op_pairs.py"), *argv],
                          capture_output=True, text=True, timeout=300)


def test_the_repository_against_itself():
    proc = _run(str(ROOT), str(ROOT), "--workload", "covers", "--limit", "3",
                "--rounds", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 0", "round 1"]
    assert lines[2] == "covers: 3 operations, 2 rounds"
    assert lines[3].startswith("median CPU: parent ")
    assert lines[4].startswith("ratio ") and lines[4].endswith(" of 2 rounds")


def _stub_checkout(path, chi):
    """A checkout whose covers catalog is one operation answering chi."""
    (path / "perfbench").mkdir(parents=True)
    (path / "src").mkdir()
    (path / "perfbench" / "workloads.py").write_text(
        "def catalog(workload):\n"
        "    return [{'key': 'only'}]\n\n\n"
        "def covers_op(spec):\n"
        f"    return {{'chi': {chi}}}\n\n\n"
        "def answer_record(workload, ans):\n"
        "    return ans\n")
    return str(path)


def test_differing_answers_stop_the_run(tmp_path):
    proc = _run(_stub_checkout(tmp_path / "p", 2), _stub_checkout(tmp_path / "c", 0),
                "--workload", "covers", "--rounds", "2")
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith(
        "answers differ on only: parent {'chi': 2}, change {'chi': 0}")
    assert proc.stdout == ""


def test_each_side_keeps_its_own_modules(tmp_path):
    """Two loads of one checkout give two module sets, and the modules
    imported before are back in sys.modules afterwards."""
    op_pairs = _op_pairs()
    import surfmap.covers
    before = sys.modules["surfmap.covers"], sys.modules.get("workloads")
    first, second = (op_pairs.load_workloads(str(ROOT)) for _ in range(2))
    assert first.covers is not second.covers
    assert before[0] not in (first.covers, second.covers)
    assert first.covers.random_cover is not second.covers.random_cover
    assert (sys.modules["surfmap.covers"], sys.modules.get("workloads")) == before
