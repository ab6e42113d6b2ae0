"""The sampler's random stream is pinned: fixed `random_cover` calls keep
their stored cover digests, exception texts and try counts.

The digests in sampler_digests.json were recorded with
tests/record_sampler_digests.py.  A mismatch means some draw moved: a
different cover, a different edge assignment order or a different
refusal.
"""

import json

import pytest

from record_sampler_digests import CASES, DIGESTS, run_case
from surfmap import covers
from surfmap.errors import Unsatisfiable
from surfmap.surfaces import Triangulation, builtin_triangulation


def test_fixed_sampler_calls_keep_their_digests():
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    assert len(stored) == len(CASES)
    for want, case in zip(stored, CASES):
        assert run_case(case) == want, case


# (base, d, branch, seed, max_tries, MonodromyCover objects built), the
# counts recorded on the sampler before its fan walks were compiled
TRIES = (
    ("sphere_tetra", 4, [3, 2, 2, 3], 0, None, 26),
    ("rp2_6", 2, None, 4, None, 5),
    ("torus_7", 6, [2, 2], 1, None, 267),
    ("torus_7", 5, None, 2, None, 11),
    ("klein_8", 6, [2, 2, 2, 2], 1, None, 1590),
    ("genus2", 4, [2, 2], 1, None, 13),
    ("rp2_6", 4, [3], 0, 400, 400),           # runs out of tries
    ("sphere_tetra", 2, [2], 0, None, 0),     # refused before sampling
)


@pytest.mark.parametrize("base,d,branch,seed,max_tries,built", TRIES)
def test_one_cover_is_built_per_try(monkeypatch, base, d, branch, seed, max_tries,
                                    built):
    count = [0]
    init = covers.MonodromyCover.__init__

    def counting_init(obj, *args, **kwargs):
        count[0] += 1
        init(obj, *args, **kwargs)

    # a fresh copy of the base, so whatever the sampler caches on a
    # triangulation is built inside the counted call
    tri = Triangulation.from_json(builtin_triangulation(base).to_json())
    monkeypatch.setattr(covers.MonodromyCover, "__init__", counting_init)
    budget = {} if max_tries is None else {"max_tries": max_tries}
    try:
        covers.random_cover(tri, d, branch, seed=seed, **budget)
    except Unsatisfiable:
        assert max_tries is not None or built == 0
    assert count[0] == built
