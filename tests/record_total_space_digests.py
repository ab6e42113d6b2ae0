"""Assembled total spaces whose bytes must stay identical.

For every case of record_sampler_digests.CASES that yields a cover, a
record holds the sha256 of `assemble_total_space(cover,
with_labels=True)`: the total space's `dumps()` followed by its
projection labels, each label table sorted by index.  It pins the
gluing order, the numbering of vertices, edges and triangles, and the
rotations.  Cases that raise have no record.

    PYTHONPATH=src python tests/record_total_space_digests.py   # rewrite the json

Rewrite the stored digests only when a change of the assembly's output
is intended; tests/test_total_space_digests.py compares against them.
"""

import hashlib
import json
import os
import sys

from record_sampler_digests import CASES
from surfmap.covers import assemble_total_space, random_cover
from surfmap.errors import SurfmapError
from surfmap.surfaces import builtin_triangulation

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "total_space_digests.json")


def cover_of(case):
    """The cover of a sampler case, or None when the call raises."""
    base, d, branch, seed, max_tries = case
    budget = {} if max_tries is None else {"max_tries": max_tries}
    try:
        return random_cover(builtin_triangulation(base), d, branch, seed=seed,
                            **budget)
    except SurfmapError:
        return None


def digest(cover) -> str:
    total, labels = assemble_total_space(cover, with_labels=True)
    tables = {kind: sorted(table.items()) for kind, table in labels.items()}
    text = total.dumps() + json.dumps(tables, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def records() -> list:
    out = []
    for case in CASES:
        cover = cover_of(case)
        if cover is not None:
            out.append({"case": list(case), "sha256": digest(cover)})
    return out


def main() -> int:
    recs = records()
    with open(DIGESTS, "w") as fh:
        json.dump(recs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recs)} records to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
