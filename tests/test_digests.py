"""Byte-identical determinism: fixed commands keep their stored digests.

The digests in digests.json were recorded with tests/record_digests.py.
A mismatch means a command's stdout, exit code or written files changed.
"""

import json

from record_digests import COMMANDS, DIGESTS, run_commands


def test_fixed_commands_keep_their_digests(tmp_path):
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    assert [r["argv"] for r in stored] == [list(argv) for argv, _ in COMMANDS]
    got = run_commands(str(tmp_path))
    for want, have in zip(stored, got):
        assert have == want, " ".join(want["argv"])
