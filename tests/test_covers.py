import argparse
import contextlib
import io
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from surfmap import cli, covers
from surfmap.covers import (MonodromyCover, assemble_total_space, cover_chi,
                            cover_components, cover_connected, cover_solve,
                            disk_pieces, induced_triangulation,
                            perm_from_cycles, perm_id, perm_inv, perm_mul,
                            random_cover)
from surfmap.errors import (Branched, InternalInconsistency, NotClosed,
                            Unsatisfiable)
from surfmap.surfaces import BUILTIN_NAMES, Triangulation, builtin_triangulation

from helpers import (disjoint_cover, reference_random_branch, reference_random_cover,
                     reference_shuffle_into, reference_walk, two_triangle_sphere,
                     with_rotations_reversed)


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


def test_data_the_snapshot_cannot_read_is_checked_and_solved_afresh():
    """An edge_perm entry of None, under an edge the base lacks, is data
    the state snapshot cannot read: validate() gives the uncached check's
    problems and cover_solve a solve from scratch, which reads the base's
    edges only, and neither memo changes."""
    c = random_cover(builtin_triangulation("sphere_tetra"), 2, [2, 2], seed=0)
    solved = cover_solve(c)
    verdict, memo = c._verdict, c._solved
    c.edge_perm[99] = None
    assert c.validate() == c._problems() == [
        "edge_perm names edge 99, which the base lacks"]
    again = cover_solve(c)
    assert (again.parent, again.parity, again.sets, again.ok) == \
        (solved.parent, solved.parity, solved.sets, solved.ok)
    assert (c._verdict, c._solved) == (verdict, memo)
    del c.edge_perm[99]
    assert c.validate() == []


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
    on arbitrary (mostly invalid) covers with d <= 8; and its kernels (the
    edge draws of the shuffle kernel, solved, and the root-word walk
    kernel) against the root's fan_product on the covers they make."""
    tri = builtin_triangulation(name)
    programs = covers._fan_programs(tri)
    draws, solves, _word, walk, assigned = covers._sampler_plan(tri)
    root = tri.vertices[0]
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
        perms = covers._sheet_slots(tri, d, branch)
        covers._shuffle_kernel(d)(rng.getrandbits, range(d), perms, draws)
        table = covers._sheet_table(perms, solves, d)
        drawn = MonodromyCover(tri, d, {e: tuple(s + 1 for s in table[2 * e])
                                        for e in assigned}, branch)
        assert tuple(walk(perms, s) + 1 for s in range(d)) == drawn.fan_product(root)


ROOT_WORD_LENGTHS = {"sphere_tetra": 10, "rp2_6": 30, "torus_7": 44, "klein_8": 50,
                     "genus2": 84, "two_triangles": 4}


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("two_triangles",))
def test_root_word_matches_the_compiled_root_fan(name):
    """Every sheet walked through the sampler's root word against the
    compiled root fan after the solves, on random (mostly rejected) draws
    and branch cycles with d <= 8."""
    tri = (two_triangle_sphere() if name == "two_triangles"
           else builtin_triangulation(name))
    draws, solves, word, walk, _assigned = covers._sampler_plan(tri)
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
        assert tuple(reference_walk(word, perms, s) for s in range(d)) == want, (d, branch)
        assert tuple(walk(perms, s) for s in range(d)) == want, (d, branch)


def test_root_fan_contradicting_the_root_word_is_an_internal_inconsistency(
        monkeypatch):
    plan = covers._sampler_plan

    def plan_with_a_walk_that_fixes_every_sheet(tri):
        draws, solves, word, _walk, assigned = plan(tri)
        return draws, solves, word, lambda perms, s: s, assigned

    monkeypatch.setattr(covers, "_sampler_plan", plan_with_a_walk_that_fixes_every_sheet)
    with pytest.raises(InternalInconsistency) as ex:
        random_cover(builtin_triangulation("torus_7"), 3, None, seed=0)
    assert ex.value.context == "random_cover"


@pytest.mark.parametrize("d", range(1, 9))
def test_inlined_shuffle_keeps_the_random_stream(d):
    """The sampler's batch shuffle, uncompiled and as the shuffle kernel,
    draws what random.Random.shuffle draws, one shuffle per key in order,
    and leaves the generator in the same state."""
    steps = covers._shuffle_steps(d)
    shuffles = (lambda getrandbits, items, out, keys: reference_shuffle_into(
        getrandbits, steps, items, out, keys), covers._shuffle_kernel(d))
    for shuffle, count in itertools.product(shuffles, (1, 3)):
        keys = [2 * k + 1 for k in range(count)]
        for seed in range(1000):
            want, got = random.Random(seed), random.Random(seed)
            xs = []
            for _ in keys:
                x = list(range(d))
                want.shuffle(x)
                xs.append(x)
            out = {}
            shuffle(got.getrandbits, range(d), out, keys)
            assert list(out) == keys and list(out.values()) == xs, (count, seed)
            assert got.getstate() == want.getstate(), (count, seed)


def test_kernel_source_is_formatted_from_ints_only():
    assert covers._literal(7) == "7"
    for x in (True, 7.0, "7", "0; pass"):
        with pytest.raises(TypeError):
            covers._literal(x)


BRANCH_CHOICES = (None, (2, 2), (3, 3), (2, 2, 2, 2), (4, 4), (3, 2, 2, 3))


def _outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the text of the Unsatisfiable it raises."""
    try:
        return fn(*args, **kwargs)
    except Unsatisfiable as ex:
        return f"Unsatisfiable: {ex}"


def _assert_kernels_match_the_references(tri):
    """For every d in 1..8 and branch choice, 12 tries of the sampler
    made twice from one seed, once by the kernels and once by the
    uncompiled references: the same branch, the same slots after the edge
    draws, the same sheets walked through the root word, and the same
    generator state after each try."""
    draws, _solves, word, walk, _assigned = covers._sampler_plan(tri)
    triangles = list(range(len(tri.triangles)))
    for d in range(1, 9):
        steps, shuffle = covers._shuffle_steps(d), covers._shuffle_kernel(d)
        ident, sheets = tuple(range(d)), tuple(range(1, d + 1))
        for choice in BRANCH_CHOICES:
            if choice and max(choice) > d:
                continue
            spec = list(choice) if choice else None
            want, got = random.Random(d), random.Random(d)
            for _ in range(12):
                branch = _outcome(reference_random_branch, want.getrandbits, steps,
                                  triangles, sheets, spec)
                assert _outcome(covers._random_branch, got.getrandbits, shuffle,
                                triangles, sheets, spec) == branch, (d, choice)
                assert got.getstate() == want.getstate(), (d, choice)
                if isinstance(branch, str):
                    break
                expected = covers._sheet_slots(tri, d, branch)
                reference_shuffle_into(want.getrandbits, steps, ident, expected, draws)
                perms = covers._sheet_slots(tri, d, branch)
                shuffle(got.getrandbits, ident, perms, draws)
                assert perms == expected, (d, choice)
                assert got.getstate() == want.getstate(), (d, choice)
                assert ([walk(perms, s) for s in ident]
                        == [reference_walk(word, expected, s) for s in ident]), (d, choice)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernels_match_the_uncompiled_steps(name):
    _assert_kernels_match_the_references(builtin_triangulation(name))


def test_kernels_match_the_uncompiled_steps_on_a_base_file(tmp_path):
    """The same comparison on a base the package does not build: a total
    space, read as the CLI reads --base-file; and `generate cover` over
    it writes the cover of the uncompiled tries."""
    total = assemble_total_space(random_cover(builtin_triangulation("torus_7"), 2,
                                              [2, 2], seed=0))
    path = tmp_path / "base.json"
    path.write_text(json.dumps(total.to_json()))
    tri = cli._base_triangulation(argparse.Namespace(base_file=str(path)))
    assert tri.vertices != builtin_triangulation("torus_7").vertices
    _assert_kernels_match_the_references(tri)
    out = tmp_path / "cover.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "cover", "--base-file", str(path), "--d", "2",
                         "--seed", "1", "--out", str(out)]) == 0
    cover, _tries = reference_random_cover(tri, 2, None, 1, 50000)
    assert json.loads(out.read_text()) == cover.to_json()


BUDGET = 1500


def test_random_cover_at_d_7_and_8_matches_the_uncompiled_tries(monkeypatch):
    """The whole outcome of random_cover at d = 7 and 8 with a small try
    budget, against the uncompiled tries: the kept cover or the
    exhaustion, and the number of tries (MonodromyCover objects built)."""
    built = [0]
    init = MonodromyCover.__init__

    def counting_init(obj, *args, **kwargs):
        built[0] += 1
        init(obj, *args, **kwargs)

    found = 0
    for name, d, spec in itertools.product(("rp2_6", "torus_7", "klein_8"), (7, 8),
                                           (None, [2, 2], [3, 2, 2, 3])):
        tri = builtin_triangulation(name)
        for seed in range(3):
            monkeypatch.setattr(MonodromyCover, "__init__", counting_init)
            built[0] = 0
            got = _outcome(random_cover, tri, d, spec, seed, max_tries=BUDGET)
            monkeypatch.undo()
            if not built[0]:
                continue        # refused before sampling
            want, tries = reference_random_cover(tri, d, spec, seed, BUDGET)
            assert built[0] == tries, (name, d, spec, seed)
            if want is None:
                assert got.startswith("Unsatisfiable: no valid cover found"), got
            else:
                assert got.to_json() == want.to_json(), (name, d, spec, seed)
                found += 1
    assert found >= 10, found


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
