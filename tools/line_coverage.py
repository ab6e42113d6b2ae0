"""The lines of the package that a pytest selection never runs.

    python3 tools/line_coverage.py OUT [--source DIR] [-- PYTEST ARGS...]

Runs `python -m pytest PYTEST ARGS` from the repository root (by default
the tier-1 selection, `-q --continue-on-collection-errors`) with a
generated `sitecustomize.py` first on PYTHONPATH.  That hook installs a
line tracer (sys.settrace, and threading.settrace for new threads) in the
pytest process and in every Python process it starts, the CLI
subprocesses of the tests included, and each process writes the lines it
ran in the .py files under DIR (default src/surfmap) when it exits.  A
process that ends by os._exit, or that ignores PYTHONPATH (-E, -I), writes
nothing.  OUT gets one JSON object:

    {"executable": N, "unreached": M,
     "files": {path under DIR: [unreached line, ...], ...}}

with every .py file under DIR in `files`.  A file's executable lines are
the line numbers its code objects list in co_lines(), nested code objects
included, less the lines of module, class and function docstrings.  The
tool prints the two counts and exits with pytest's status; OUT is written
whatever the tests' outcome.  Tracing the tier-1 selection takes about
four times as long as running it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-q", "--continue-on-collection-errors"]

HOOK = '''\
import atexit, json, os, sys, tempfile, threading


def _trace(source, out):
    wanted, hits = {{}}, {{}}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.realpath(name).startswith(source)
            if keep:
                hits.setdefault(name, set())
        return local if keep else None

    def write():
        sys.settrace(None)
        fd, path = tempfile.mkstemp(suffix=".json", dir=out)
        with os.fdopen(fd, "w") as fh:
            json.dump({{os.path.realpath(name): sorted(lines)
                        for name, lines in hits.items()}}, fh)

    atexit.register(write)
    threading.settrace(calls)
    sys.settrace(calls)


_trace({source!r}, {out!r})
'''


def executable_lines(path: str) -> set:
    """The line numbers of the code objects compiled from `path`, less its
    docstrings' lines."""
    with open(path) as fh:
        text = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines, todo = set(), [compile(text, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines()
                     if line is not None and line > 0)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - docstrings


def sources(source: str) -> list:
    """The .py files under `source`, sorted."""
    return sorted(os.path.join(top, name) for top, _dirs, names in os.walk(source)
                  for name in names if name.endswith(".py"))


def unreached(source: str, runs: list) -> dict:
    """OUT's object for the files under `source`, from the per-process
    line records `runs` (realpath -> lines run)."""
    files, executable = {}, 0
    for path in sources(source):
        lines = executable_lines(path)
        ran = set().union(*(run.get(os.path.realpath(path), ()) for run in runs))
        executable += len(lines)
        files[os.path.relpath(path, source)] = sorted(lines - ran)
    return {"executable": executable,
            "unreached": sum(map(len, files.values())), "files": files}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ours, pytest_args = ((argv[:argv.index("--")], argv[argv.index("--") + 1:])
                         if "--" in argv else (argv, TIER1))
    p = argparse.ArgumentParser(description="Unreached lines of a pytest run.")
    p.add_argument("out")
    p.add_argument("--source", default=os.path.join(ROOT, "src", "surfmap"))
    args = p.parse_args(ours)
    source = os.path.realpath(args.source)
    with tempfile.TemporaryDirectory() as work:
        hook_dir, out_dir = os.path.join(work, "hook"), os.path.join(work, "out")
        os.mkdir(hook_dir)
        os.mkdir(out_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK.format(source=os.path.join(source, ""), out=out_dir))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        status = subprocess.run([sys.executable, "-m", "pytest", *pytest_args],
                                cwd=ROOT, env=env).returncode
        runs = []
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name)) as fh:
                runs.append({path: set(lines) for path, lines in json.load(fh).items()})
    report = unreached(source, runs)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{report['unreached']} of {report['executable']} executable lines "
          f"unreached ({len(runs)} processes traced)")
    return status


if __name__ == "__main__":
    sys.exit(main())
