"""Fixed `random_cover` calls whose results must stay byte-identical.

A record holds either the sha256 of the cover (its sorted-key
`to_json()` document followed by `list(cover.edge_perm)`, which pins the
order edges were assigned in) or the exception class and text the call
raised.  The cases: every (base, d <= 6, branch) cell over the five
built-in bases, two seeds each, refused cells included; genus2 d=8
branch [2, 2] seed 1; and rp2_6 d=4 branch [3] with a budget of 400
tries, which runs out.

    PYTHONPATH=src python tests/record_sampler_digests.py   # rewrite the json

Rewrite the stored digests only when a change of the sampler's random
stream is intended; tests/test_sampler_digests.py compares against them.
"""

import hashlib
import json
import os
import sys

from surfmap.covers import random_cover
from surfmap.errors import SurfmapError
from surfmap.surfaces import BUILTIN_NAMES, builtin_triangulation

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "sampler_digests.json")

BRANCH_CHOICES = (None, [2, 2], [3, 3], [2, 2, 2, 2], [4, 4], [3, 2, 2, 3])

# (base, d, branch, seed, max_tries or None for the default budget)
CASES = tuple(
    (base, d, branch, seed, None)
    for base in BUILTIN_NAMES
    for d in range(1, 7)
    for branch in BRANCH_CHOICES
    for seed in (0, 1)
) + (("genus2", 8, [2, 2], 1, None), ("rp2_6", 4, [3], 0, 400))


def run_case(case) -> dict:
    base, d, branch, seed, max_tries = case
    budget = {} if max_tries is None else {"max_tries": max_tries}
    record = {"base": base, "d": d, "branch": branch, "seed": seed,
              "max_tries": max_tries}
    try:
        cover = random_cover(builtin_triangulation(base), d, branch, seed=seed,
                             **budget)
    except SurfmapError as ex:
        record["error"] = f"{type(ex).__name__}: {ex}"
        return record
    text = json.dumps([cover.to_json(), list(cover.edge_perm)], sort_keys=True)
    record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return record


def main() -> int:
    records = [run_case(case) for case in CASES]
    with open(DIGESTS, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
