import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from surfmap import covers
from surfmap.covers import (MonodromyCover, assemble_total_space, cover_chi,
                            cover_components, cover_connected, disk_pieces,
                            induced_triangulation,
                            perm_from_cycles, perm_id, perm_inv, perm_mul,
                            random_cover)
from surfmap.errors import (Branched, InternalInconsistency, NotClosed,
                            Unsatisfiable)
from surfmap.surfaces import BUILTIN_NAMES, Triangulation, builtin_triangulation

from helpers import disjoint_cover, two_triangle_sphere, with_rotations_reversed


@st.composite
def perms(draw, d=5):
    vals = draw(st.permutations(range(1, d + 1)))
    return tuple(vals)


@given(perms(), perms())
def test_perm_algebra(p, q):
    d = len(p)
    assert perm_mul(p, perm_inv(p)) == perm_id(d)
    assert perm_inv(perm_inv(p)) == p
    assert perm_mul(perm_inv(q), perm_mul(perm_inv(p), perm_mul(p, q))) == perm_id(d)


def test_perm_from_cycles():
    assert perm_from_cycles([(1, 2)], 3) == (2, 1, 3)
    assert perm_from_cycles([(1, 2, 3)], 4) == (2, 3, 1, 4)


def trivial_cover(name="sphere_tetra"):
    tri = builtin_triangulation(name)
    return MonodromyCover(tri, 1, {e: (1,) for e in range(len(tri.edges))}, {})


def test_trivial_cover():
    c = trivial_cover()
    assert c.validate() == []
    assert cover_chi(c) == 2
    assert cover_connected(c)
    assert c.d == 1
    total = assemble_total_space(c)
    assert total.euler == 2 and total.validate() == []


def test_identity_perm_double_cover_is_disconnected():
    tri = builtin_triangulation("sphere_tetra")
    c = MonodromyCover(tri, 2, {e: (1, 2) for e in range(6)}, {})
    assert c.validate() == []
    assert not cover_connected(c)
    assert cover_components(c) == {(t, s): s - 1 for t in range(4) for s in (1, 2)}


def test_bad_branch_data_reported():
    tri = builtin_triangulation("sphere_tetra")
    c = MonodromyCover(tri, 2, {e: (1, 2) for e in range(6)}, {0: [(1,)]})
    assert any("length < 2" in p for p in c.validate())
    c2 = MonodromyCover(tri, 2, {e: (1, 2) for e in range(6)}, {0: [(1, 2), (2, 1)]})
    assert any("overlapping" in p for p in c2.validate())


def test_branch_on_a_triangle_the_base_lacks_reported():
    tri = builtin_triangulation("sphere_tetra")
    c = random_cover(tri, 2, [2, 2], seed=0)
    assert c.validate() == []
    c.branch[99] = [(1, 2)]
    assert any("triangle 99" in p for p in c.validate())


def test_validate_verdict_follows_in_place_edits():
    """validate() memoizes its verdict under a value snapshot of the
    cover, so each edit in place after a passing check is reported."""
    c = random_cover(builtin_triangulation("sphere_tetra"), 2, [2, 2], seed=0)
    assert c.validate() == []
    e, p = next(iter(c.edge_perm.items()))
    c.edge_perm[e] = (1, 1)
    assert f"edge {e} has no valid sheet permutation" in c.validate()
    c.edge_perm[e] = p
    assert c.validate() == []
    cycles = next(cycles for cycles in c.branch.values() if cycles)
    cycles.append(cycles[0])
    assert any("overlapping branch cycles" in q for q in c.validate())
    cycles.pop()
    assert c.validate() == []
    c.d = 3
    assert any("d = 3" in q for q in c.validate())


def _random_cycles(rng, d):
    """Disjoint cycles of length >= 2 on a random subset of the d sheets."""
    sheets = rng.sample(range(1, d + 1), rng.randint(0, d))
    cycles = []
    while len(sheets) >= 2:
        n = rng.randint(2, len(sheets))
        cycles.append(tuple(sheets[:n]))
        sheets = sheets[n:]
    return cycles


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compiled_fans_match_the_uncompiled_walk(name):
    """The sampler's compiled fan programs against MonodromyCover.fan_product
    on arbitrary (mostly invalid) covers with d <= 8."""
    tri = builtin_triangulation(name)
    programs = covers._fan_programs(tri)
    rng = random.Random(BUILTIN_NAMES.index(name))
    for _ in range(200):
        d = rng.randint(1, 8)
        edge_perm = {e: tuple(rng.sample(range(1, d + 1), d))
                     for e in range(len(tri.edges))}
        branch = {t: _random_cycles(rng, d) for t in range(len(tri.triangles))
                  if rng.random() < 0.4}
        cover = MonodromyCover(tri, d, edge_perm, branch)
        perms = covers._sheet_slots(tri, d, branch)
        for e, p in edge_perm.items():
            perms[e] = tuple(s - 1 for s in p)
        table = covers._sheet_table(perms, (), d)
        for v in tri.vertices:
            got = covers._run_fan(programs[v], table, tuple(range(d)))
            assert tuple(s + 1 for s in got) == cover.fan_product(v), (d, v)


ROOT_WORD_LENGTHS = {"sphere_tetra": 10, "rp2_6": 30, "torus_7": 44, "klein_8": 50,
                     "genus2": 84, "two_triangles": 4}


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("two_triangles",))
def test_root_word_matches_the_compiled_root_fan(name):
    """Every sheet walked through the sampler's root word against the
    compiled root fan after the solves, on random (mostly rejected) draws
    and branch cycles with d <= 8."""
    tri = (two_triangle_sphere() if name == "two_triangles"
           else builtin_triangulation(name))
    draws, solves, word, _assigned = covers._sampler_plan(tri)
    root_program = covers._fan_programs(tri)[tri.vertices[0]]
    # the surface relator: every drawn edge twice, every seam once
    assert len(word) == ROOT_WORD_LENGTHS[name]
    assert Counter(k for k, _inverse in word) == Counter(
        list(draws) * 2 + [len(tri.edges) + t for t in range(len(tri.triangles))])
    rng = random.Random(name)
    for _ in range(200):
        d = rng.randint(1, 8)
        branch = {t: _random_cycles(rng, d) for t in range(len(tri.triangles))
                  if rng.random() < 0.4}
        perms = covers._sheet_slots(tri, d, branch)
        for e in draws:
            perms[e] = rng.sample(range(d), d)
        table = covers._sheet_table(perms, solves, d)
        want = covers._run_fan(root_program, table, tuple(range(d)))
        got = tuple(covers._walk(word, perms, s) for s in range(d))
        assert got == want, (d, branch)


def test_root_fan_contradicting_the_root_word_is_an_internal_inconsistency(
        monkeypatch):
    monkeypatch.setattr(covers, "_walk", lambda word, perms, s: s)
    with pytest.raises(InternalInconsistency) as ex:
        random_cover(builtin_triangulation("torus_7"), 3, None, seed=0)
    assert ex.value.context == "random_cover"


@pytest.mark.parametrize("d", range(1, 9))
def test_inlined_shuffle_keeps_the_random_stream(d):
    """The sampler's batch shuffle draws what random.Random.shuffle draws,
    one shuffle per key in order, and leaves the generator in the same
    state."""
    steps = covers._shuffle_steps(d)
    for count in (1, 3):
        keys = [2 * k + 1 for k in range(count)]
        for seed in range(1000):
            want, got = random.Random(seed), random.Random(seed)
            xs = []
            for _ in keys:
                x = list(range(d))
                want.shuffle(x)
                xs.append(x)
            out = {}
            covers._shuffle_into(got.getrandbits, steps, range(d), out, keys)
            assert list(out) == keys and list(out.values()) == xs, (count, seed)
            assert got.getstate() == want.getstate(), (count, seed)


def test_open_fan_reported():
    tri = builtin_triangulation("sphere_tetra")
    # a single-transposition edge assignment cannot close every fan
    perms = {e: (1, 2) for e in range(6)}
    perms[0] = (2, 1)
    c = MonodromyCover(tri, 2, perms, {})
    assert any("does not close" in p for p in c.validate())
    with pytest.raises(NotClosed):
        assemble_total_space(c)


SPECS = [
    ("sphere_tetra", 2, [2, 2]),
    ("sphere_tetra", 3, [3, 3]),
    ("sphere_tetra", 3, [2, 2, 2, 2]),
    ("sphere_tetra", 4, [4, 4]),
    ("rp2_6", 2, None),
    ("rp2_6", 4, [2, 2]),
    ("torus_7", 2, None),
    ("torus_7", 3, None),
    ("torus_7", 4, [2, 2]),
    ("klein_8", 2, None),
    ("klein_8", 3, [2, 2]),
    ("genus2", 2, None),
    ("genus2", 3, [2, 2]),
]


@pytest.mark.parametrize("name,d,branch", SPECS)
def test_random_cover_oracle(name, d, branch):
    tri = builtin_triangulation(name)
    for seed in (0, 1):
        cover = random_cover(tri, d, branch, seed=seed)
        assert cover.validate() == []
        assert cover_connected(cover)
        total = assemble_total_space(cover)
        assert total.validate() == []
        assert total.euler == cover_chi(cover)
        assert total.is_connected()


def test_random_cover_deterministic():
    tri = builtin_triangulation("torus_7")
    a = random_cover(tri, 3, [2, 2], seed=11)
    b = random_cover(tri, 3, [2, 2], seed=11)
    assert a.to_json() == b.to_json()


def test_unsatisfiable_specs():
    tri = builtin_triangulation("sphere_tetra")
    with pytest.raises(Unsatisfiable):
        random_cover(tri, 2, [3], seed=0)          # cycle longer than d
    with pytest.raises(Unsatisfiable):
        random_cover(tri, 3, [2], seed=0)          # odd total defect
    with pytest.raises(Unsatisfiable):
        random_cover(tri, 2, None, seed=0)         # chi(Q) = 4 > 2 connected
    rp2 = builtin_triangulation("rp2_6")
    with pytest.raises(Unsatisfiable):
        # even defect and chi fine, but cyclic monodromy cannot realize it
        random_cover(rp2, 4, [3], seed=0, max_tries=400)


def test_branched_disk_pieces():
    tri = builtin_triangulation("sphere_tetra")
    cover = random_cover(tri, 3, [3, 3], seed=7)
    pieces = disk_pieces(cover)
    branched = [t for (t, loop) in pieces if len(loop) == 3]
    plain = [(t, loop) for (t, loop) in pieces if len(loop) == 1]
    # two fully-branched triangles with one disk each; the other two
    # triangles keep one plain lift per sheet
    assert len(branched) == 2
    assert len(plain) == 3 * (len(tri.triangles) - 2)
    assert len(pieces) == len(plain) + len(branched)


def test_induced_triangulation_labels():
    tri = builtin_triangulation("torus_7")
    cover = random_cover(tri, 2, None, seed=1)
    total, labels = induced_triangulation(cover)
    assert total.euler == 0 and total.validate() == []
    assert sorted(labels["triangles"].values()) == sorted(
        list(range(len(tri.triangles))) * 2)
    with pytest.raises(Branched):
        induced_triangulation(random_cover(
            builtin_triangulation("sphere_tetra"), 2, [2, 2], seed=0))


def test_cover_json_round_trip():
    tri = builtin_triangulation("sphere_tetra")
    cover = random_cover(tri, 3, [3, 3], seed=7)
    again = MonodromyCover.from_json(cover.to_json())
    assert again.to_json() == cover.to_json()
    assert again.validate() == []


def _bfs_components(cover):
    """(triangle, sheet) -> component by breadth-first search over edge
    crossings and branch-cycle mates, numbered in order of discovery."""
    mates = {}
    for t, cyc in cover.branch_cycles():
        for s in cyc:
            mates.setdefault((t, s), set()).update(cyc)
    comp = {}
    for start in ((t, s) for t in range(len(cover.base.triangles))
                  for s in range(1, cover.d + 1)):
        if start in comp:
            continue
        n = comp[start] = len(set(comp.values()))
        frontier = [start]
        while frontier:
            t, s = frontier.pop()
            near = [(t, s2) for s2 in mates.get((t, s), ())]
            for e in cover.base.triangle_edges(t):
                t1, t2 = cover.side_triangles(e)
                sigma = cover.edge_perm[e]
                near.append((t2, sigma[s - 1]) if t == t1 else (t1, sigma.index(s) + 1))
            for state in near:
                if state not in comp:
                    comp[state] = n
                    frontier.append(state)
    return comp


BRANCH_CHOICES = (None, (2, 2), (3, 3), (2, 2, 2, 2), (4, 4), (3, 2, 2, 3))


def test_cover_solve_matches_the_search_and_the_assembly():
    """cover_solve's components, numbered by least state, against a
    breadth-first search, and its orientability against the assembled
    total space's: every base and the two-triangle sphere, d <= 6, every
    branch choice, connected covers and every two of them side by side
    (disjoint_cover) with at most 6 sheets in all."""
    n = disconnected = 0
    for name in BUILTIN_NAMES + ("two_triangles",):
        tri = (two_triangle_sphere() if name == "two_triangles"
               else builtin_triangulation(name))
        connected = []
        for d in range(1, 7):
            for branch in BRANCH_CHOICES:
                try:
                    connected.append(random_cover(tri, d, list(branch or ()) or None,
                                                  seed=d))
                except Unsatisfiable:
                    continue
        apart = [disjoint_cover(first, second)
                 for first, second in itertools.combinations(connected, 2)
                 if first.d + second.d <= 6]
        for cover in connected + apart:
            comp = cover_components(cover)
            assert comp == _bfs_components(cover), (name, cover.d, cover.branch)
            total = assemble_total_space(cover)
            assert covers.cover_solve(cover).ok == total.orientability()
            assert cover_connected(cover) == total.is_connected()
            n += 1
            disconnected += max(comp.values()) > 0
    assert n >= 200 and disconnected >= 50, (n, disconnected)


def test_cover_solve_is_memoized_per_cover_state_and_each_call_gets_its_own():
    """cover_solve keeps its answer under the cover's snapshot: a cover
    changed in place is solved again, and each call gets a copy that the
    caller may change without changing the next call's answer."""
    tri = builtin_triangulation("sphere_tetra")
    cover = MonodromyCover(tri, 2, {e: (1, 2) for e in range(6)}, {})
    first = covers.cover_solve(cover)
    assert first.sets == 2 and not cover_connected(cover)
    first.sets = 1
    assert covers.cover_solve(cover).sets == 2
    assert covers.cover_solve(cover) is not covers.cover_solve(cover)
    cover.edge_perm[0] = (2, 1)
    assert cover_connected(cover)
    assert cover_components(cover) == {(t, s): 0 for t in range(4) for s in (1, 2)}


def test_memo_follows_a_rebound_base(monkeypatch):
    """validate() and cover_solve() key their memo by the base itself: a
    cover whose base is rebound to another triangulation is checked and
    solved again, and one rebound to an equal triangulation is not."""
    tri = builtin_triangulation("torus_7")
    sampled = random_cover(tri, 3, [3, 3], seed=0)
    cover = MonodromyCover(tri, 3, sampled.edge_perm, sampled.branch)
    calls = []
    problems, solve = MonodromyCover._problems, covers._solve_cover
    monkeypatch.setattr(MonodromyCover, "_problems",
                        lambda c: calls.append("check") or problems(c))
    monkeypatch.setattr(covers, "_solve_cover",
                        lambda c: calls.append("solve") or solve(c))

    def check_and_solve():
        return cover.validate(), covers.cover_solve(cover).sets

    assert check_and_solve() == ([], 1) and calls == ["check", "solve"]
    assert check_and_solve() == ([], 1) and calls == ["check", "solve"]
    cover.base = with_rotations_reversed(tri, tri.vertices[::2])
    assert check_and_solve() == ([], 1) and calls == ["check", "solve"] * 2
    cover.base = Triangulation.from_json(cover.base.to_json())
    assert check_and_solve() == ([], 1) and calls == ["check", "solve"] * 2
    cover.base = builtin_triangulation("klein_8")
    assert "edge 21 has no valid sheet permutation" in cover.validate()
    assert calls == ["check", "solve"] * 2 + ["check"]


def _tetra_cover_edited(edit):
    """sphere_tetra's d = 2 cover with branch points on triangles 1 and 3,
    its data edited by `edit`."""
    c = random_cover(builtin_triangulation("sphere_tetra"), 2, [2, 2], seed=0)
    assert c.branch == {3: [(2, 1)], 1: [(1, 2)]}
    edit(c)
    return c


@pytest.mark.parametrize("edit, problems", [
    (lambda c: c.edge_perm.__setitem__(99, (1, 2)),
     ["edge_perm names edge 99, which the base lacks"]),
    (lambda c: c.edge_perm.__setitem__(-1, (1, 2)),
     ["edge_perm names edge -1, which the base lacks"]),
    (lambda c: c.branch.__setitem__(0, [(1, 3)]), ["bad branch cycle (1, 3) in triangle 0"]),
    (lambda c: c.branch.__setitem__(0, [(1, 1)]), ["bad branch cycle (1, 1) in triangle 0"]),
    (lambda c: c.branch.__setitem__(0, [(0, 1)]), ["bad branch cycle (0, 1) in triangle 0"]),
    (lambda c: c.branch.clear(),
     ["vertex fan at 0 does not close", "vertex fan at 1 does not close"]),
    (lambda c: c.branch.pop(3), ["vertex fan at 1 does not close"]),
])
def test_cover_validate_reports_exactly(edit, problems):
    assert _tetra_cover_edited(edit).validate() == problems
