"""tools/line_coverage.py on a small fixture module."""

import importlib.util
import json
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''\
"""A module docstring:
its lines are not executable."""


def called(x):
    """Called by the test with x = 1."""
    if x > 0:
        return "positive"
    return "not positive"


def in_a_thread():
    return "thread"


def in_a_subprocess():
    return "subprocess"


def never():
    return "never"


if __name__ == "__main__":
    print(in_a_subprocess())
'''

TEST = '''\
import os
import subprocess
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "pkg"))
import fixture_mod


def test_the_fixture():
    assert fixture_mod.called(1) == "positive"
    thread = threading.Thread(target=fixture_mod.in_a_thread)
    thread.start()
    thread.join()
    subprocess.run([sys.executable, fixture_mod.__file__], check=True)
'''


def _line_coverage():
    spec = importlib.util.spec_from_file_location("line_coverage",
                                                  ROOT / "tools" / "line_coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lines_of_a_fixture_module(tmp_path):
    """What runs in the pytest process, in a thread it starts and in a
    Python subprocess counts as reached; the docstrings are not lines."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "fixture_mod.py").write_text(FIXTURE)
    (tmp_path / "test_fixture.py").write_text(TEST)
    out = tmp_path / "unreached.json"
    tool = _line_coverage()
    assert tool.executable_lines(str(pkg / "fixture_mod.py")) == {
        5, 7, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25}
    status = tool.main([str(out), "--source", str(pkg), "--",
                        "-q", "-p", "no:cacheprovider", str(tmp_path / "test_fixture.py")])
    assert status == 0
    assert json.loads(out.read_text()) == {
        "executable": 12, "unreached": 2, "files": {"fixture_mod.py": [9, 21]}}


def test_a_docstring_of_a_class_is_not_executable(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent('''\
        class A:
            """Two
            lines."""
            x = 1
        '''))
    assert _line_coverage().executable_lines(str(path)) == {1, 4}
