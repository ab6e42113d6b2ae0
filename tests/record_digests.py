"""Fixed `surfmap` commands whose output must stay byte-identical.

Each command runs in-process through `surfmap.cli.main` inside one
scratch directory, in order (later commands read files written by
earlier ones).  A record holds the exit code, the sha256 of stdout and
the sha256 of every file the command wrote.

    PYTHONPATH=src python tests/record_digests.py    # rewrite digests.json

Rewrite the stored digests only when an output change is intended;
tests/test_digests.py compares against them.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from surfmap import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# (argv, files the command writes)
COMMANDS = (
    (["generate", "cover", "--base", "torus_7", "--d", "2", "--seed", "1",
      "--out", "c_torus.json"], ["c_torus.json"]),
    (["oracle", "c_torus.json"], []),
    (["analyze", "validate", "c_torus.json"], []),
    (["analyze", "degree", "c_torus.json"], []),
    (["generate", "cover", "--base", "klein_8", "--d", "3", "--seed", "2",
      "--out", "c_klein.json"], ["c_klein.json"]),
    (["generate", "composite", "--base", "sphere_tetra", "--d", "3",
      "--branch", "3,3", "--seed", "7", "--out", "d3.json"], ["d3.json"]),
    (["generate", "scramble", "--in", "d3.json", "--steps", "64", "--seed", "3",
      "--out", "d3s.json"], ["d3s.json"]),
    (["analyze", "validate", "d3s.json"], []),
    (["analyze", "normalize", "d3s.json"], []),
    (["analyze", "degree", "d3s.json", "--dot", "d3s.dot"], ["d3s.dot"]),
    (["analyze", "factorize", "d3.json"], []),
    (["analyze", "contours", "d3.json"], []),
    (["generate", "pinch", "--base", "sphere_tetra", "--pinch", "rp2",
      "--out", "rp2p.json"], ["rp2p.json"]),
    (["analyze", "kneser", "rp2p.json"], []),
    (["generate", "composite", "--base", "rp2_6", "--d", "2", "--pinch", "klein",
      "--seed", "4", "--out", "rp2c.json"], ["rp2c.json"]),
    (["analyze", "degree", "rp2c.json"], []),
    (["analyze", "factorize", "rp2c.json"], []),
    (["generate", "composite", "--base", "genus2", "--d", "2", "--branch", "2,2",
      "--pinch", "torus", "--seed", "3", "--out", "g2.json"], ["g2.json"]),
    (["analyze", "kneser", "g2.json"], []),
    (["analyze", "contours", "g2.json"], []),
    (["generate", "composite", "--base", "klein_8", "--d", "2", "--seed", "5",
      "--out", "k8.json"], ["k8.json"]),
    (["analyze", "normalize", "k8.json"], []),
    (["generate", "composite", "--base", "torus_7", "--d", "6", "--branch", "2,2",
      "--seed", "1", "--out", "t6.json"], ["t6.json"]),
    (["analyze", "factorize", "t6.json"], []),
    (["generate", "composite", "--base", "sphere_tetra", "--d", "5",
      "--branch", "5,5", "--seed", "2", "--out", "s5.json"], ["s5.json"]),
    (["analyze", "contours", "s5.json"], []),
    (["generate", "composite", "--base", "genus2", "--d", "4", "--branch", "2,2",
      "--pinch", "klein", "--seed", "1", "--out", "g4.json"], ["g4.json"]),
    (["generate", "scramble", "--in", "g4.json", "--steps", "64", "--seed", "9",
      "--out", "g4s.json"], ["g4s.json"]),
    (["analyze", "degree", "g4s.json"], []),
    (["analyze", "kneser", "g4s.json"], []),
    (["generate", "composite", "--base", "klein_8", "--d", "6", "--seed", "1",
      "--out", "k6.json"], ["k6.json"]),
    (["generate", "composite", "--base", "rp2_6", "--d", "6", "--branch", "3,3",
      "--pinch", "crosscaps3", "--seed", "2", "--out", "r6.json"], ["r6.json"]),
    (["analyze", "normalize", "r6.json"], []),
    (["analyze", "degree", "missing.json"], []),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir: str) -> list:
    """Run every command in `workdir`; one record per command."""
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, written in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            files = {}
            for name in written:
                with open(name, "rb") as fh:
                    files[name] = _sha(fh.read())
            records.append({"argv": list(argv), "rc": rc,
                            "stdout": _sha(out.getvalue().encode()),
                            "files": files})
    finally:
        os.chdir(cwd)
    return records


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records = run_commands(tmp)
    with open(DIGESTS, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
