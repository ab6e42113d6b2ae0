"""The assembled total spaces are pinned: every cover of the sampler's
fixed calls assembles to the stored bytes, labels included.

The digests in total_space_digests.json were recorded with
tests/record_total_space_digests.py.  A mismatch means the gluing
order, the numbering or the rotations of the assembly moved.
"""

import json

from record_total_space_digests import DIGESTS, records


def test_assembled_total_spaces_keep_their_digests():
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    assert len(stored) > 200
    got = records()
    assert [r["case"] for r in got] == [r["case"] for r in stored]
    for want, have in zip(stored, got):
        assert have == want, want["case"]
