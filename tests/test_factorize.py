import random

import pytest

from surfmap.covers import (assemble_total_space, cover_chi, random_cover)
from surfmap.errors import (Branched, GraphLike, InputError, NotNormal,
                            Unsatisfiable, ZeroDegree)
from surfmap.surfaces import BUILTIN_NAMES, SurfaceKind, builtin_triangulation
from surfmap.transverse import (add_pinch, chi_domain, identity_map,
                                map_from_cover, mod2_degree, signed_degree)
from surfmap.factorize import (compose_with_covering, factorize,
                               geometric_degree, orientation_true,
                               verify_kneser)
from surfmap.covers import induced_triangulation

from helpers import (branched_sphere_double, builtin_example, identity_copies,
                     join_regions, scrambled, tube_cover_map, tube_double)


def test_identity_decomposition():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    d, dec = geometric_degree(tm, with_decomposition=True)
    assert d == 1 and dec.variant == "pinched_cover"
    assert dec.branch_indices == [] and dec.pinches == []
    assert dec.kneser_deficit == 0
    assert orientation_true(dec)


def test_factorize_requires_normal_form():
    sc = scrambled(identity_map(builtin_triangulation("sphere_tetra")), 2, 0)
    with pytest.raises(NotNormal):
        factorize(sc)


def test_rp2_pinch_decomposition():
    rp = builtin_example("rp2_pinch")
    d, dec = geometric_degree(rp, with_decomposition=True)
    assert d == 1
    assert dec.branch_indices == []
    assert len(dec.pinches) == 1
    piece = dec.pinches[0]
    assert not piece.kind.orientable and piece.kind.crosscaps == 1
    assert piece.collapsed_chi == 0          # a Moebius band
    assert dec.kneser_deficit == 1
    assert not orientation_true(dec)


def test_fold_is_graph_like():
    fold = builtin_example("fold_degree_zero")
    d, dec = geometric_degree(fold, with_decomposition=True)
    assert d == 0 and dec.variant == "graph_like"
    assert dec.image["dual_edges_hit"]
    with pytest.raises(GraphLike):
        orientation_true(dec)
    with pytest.raises(ZeroDegree):
        verify_kneser(fold)


COVER_SPECS = [
    ("sphere_tetra", 1, None),
    ("sphere_tetra", 2, [2, 2]),
    ("sphere_tetra", 3, [3, 3]),
    ("sphere_tetra", 4, [4, 4]),
    ("torus_7", 2, None),
    ("torus_7", 3, None),
    ("torus_7", 4, None),
    ("klein_8", 2, [2, 2]),
    ("genus2", 2, None),
]


@pytest.mark.parametrize("name,k,branch", COVER_SPECS)
def test_cover_degree_recovery(name, k, branch):
    tri = builtin_triangulation(name)
    cover = random_cover(tri, k, branch, seed=5)
    tm = map_from_cover(cover)
    d, dec = geometric_degree(tm, with_decomposition=True)
    assert d == k
    assert dec.branch_indices == (sorted(branch) if branch else [])
    assert dec.kneser_deficit == k * tri.euler - chi_domain(tm)
    # emitted cover survives the independent assembly oracle
    total = assemble_total_space(dec.cover)
    assert total.euler == cover_chi(dec.cover)
    # round trip through scrambling
    assert geometric_degree(scrambled(tm, 10, seed=1)) == k


def test_pinched_cover_decomposition():
    tet = builtin_triangulation("sphere_tetra")
    hp = add_pinch(identity_map(tet), 0, SurfaceKind(True, handles=1))
    d, dec = geometric_degree(hp, with_decomposition=True)
    assert d == 1
    assert [p.kind for p in dec.pinches] == [SurfaceKind(True, handles=1)]
    assert dec.pinches[0].collapsed_chi == -1
    assert dec.kneser_deficit == 2
    assert orientation_true(dec)
    rep = verify_kneser(hp)
    assert rep["holds"] and rep["deficit"] == 2 and rep["pinch_defect"] == 2


def test_tube_double_factorizations():
    tet = builtin_triangulation("sphere_tetra")
    same = tube_double(tet, 0, same_direction=True)
    d, dec = geometric_degree(same, with_decomposition=True)
    assert d == 2
    assert dec.branch_indices == [2, 2]      # one tube, two simple points
    assert dec.kneser_deficit == 2
    assert signed_degree(same) in (2, -2)
    total = assemble_total_space(dec.cover)
    assert total.euler == cover_chi(dec.cover) == 2

    opp = tube_double(tet, 0, same_direction=False)
    assert geometric_degree(opp) == 0


def test_tube_over_a_branched_double_cover():
    """Regions 0 and 4 of a branched double cover of the tetrahedron, both
    over triangle 0, joined by a tube: no edge permutation has to change,
    the tube's points go to triangles 0 and 2, which share seam vertex 0;
    the total space is a torus."""
    tm = tube_cover_map((0, 4))
    d, dec = geometric_degree(tm, with_decomposition=True)
    assert d == 2 and dec.branch_indices == [2, 2, 2, 2]
    assert dec.cover.branch == {t: [(1, 2)] for t in range(4)}
    assert assemble_total_space(dec.cover).euler == cover_chi(dec.cover) == 0
    rep = verify_kneser(tm)
    assert rep["deficit"] == rep["branch_defect"] == 4


def test_tubes_join_the_sheets_their_region_joins():
    """Four identity sheets of the tetrahedron joined over triangle 0 into
    one region with four circuits: each tube must join a sheet not yet
    joined, not two joined ones again, or the cover falls apart."""
    tm = identity_copies(builtin_triangulation("sphere_tetra"), 4)
    for _ in range(3):
        tm = join_regions(tm, *[k for k, r in enumerate(tm.regions) if r.label == 0][:2])
    d, dec = geometric_degree(tm, with_decomposition=True)
    assert d == 4 and dec.branch_indices == [2] * 6
    assert assemble_total_space(dec.cover).euler == cover_chi(dec.cover) == 2


def test_tubes_beyond_the_free_sheets_are_unsatisfiable():
    """A second tube over triangle 2 needs four index-2 points besides the
    cover's two, but triangles 0 and 2 hold one transposition each."""
    with pytest.raises(Unsatisfiable, match="2 tubes need 4 index-2 branch "
                                            "points, but the triangles' free "
                                            "sheets hold only 2"):
        geometric_degree(tube_cover_map((0, 4), (1, 5)))


def _tube_specs(tri, d):
    """Branch specs with connected covers of degree d over `tri`."""
    if tri.euler == 2:
        return [[d, d]]
    if tri.euler == 1:          # the total defect is even: no odd degree
        return [[d, d]] if d % 2 == 0 else []
    return [None, [2, 2]]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_tube_maps_factorize_unless_the_free_sheets_are_too_few(name):
    """One to three random tubes joining regions over one triangle, on
    covers of every base with d <= 6: the map factorizes with two more
    index-2 points per tube, or is refused as Unsatisfiable exactly when
    the triangles' free sheets hold fewer than two disjoint transpositions
    per tube.  Never an InternalInconsistency."""
    tri = builtin_triangulation(name)
    for d in range(2, 7):
        for spec in _tube_specs(tri, d):
            for seed in range(3):
                cover = random_cover(tri, d, spec, seed=seed)
                room = sum((d - sum(map(len, cover.branch.get(t, ())))) // 2
                           for t in range(len(tri.triangles)))
                for wanted in (1, 2, 3):
                    rng = random.Random(seed * 10 + wanted)
                    tm, tubes = map_from_cover(cover), 0
                    while tubes < wanted:
                        over = {}
                        for i, region in enumerate(tm.regions):
                            over.setdefault(region.label, []).append(i)
                        shared = sorted(t for t, rs in over.items() if len(rs) > 1)
                        if not shared:
                            break
                        tm = join_regions(tm, *rng.sample(over[rng.choice(shared)], 2))
                        tubes += 1
                    if 2 * tubes > room:
                        with pytest.raises(Unsatisfiable, match="tubes need"):
                            geometric_degree(tm)
                        continue
                    got, dec = geometric_degree(tm, with_decomposition=True)
                    assert got == d
                    assert dec.branch_indices == sorted(
                        cover.branch_indices() + [2] * (2 * tubes))
                    assert dec.kneser_deficit == d * tri.euler - chi_domain(tm) \
                        == sum(i - 1 for i in dec.branch_indices)
                    assert assemble_total_space(dec.cover).euler == cover_chi(dec.cover)


def test_degree_zero_pinched_branched_composite():
    tm = map_from_cover(branched_sphere_double())
    from surfmap.transverse import classify_circuit
    idx1 = next(ri for ri, reg in enumerate(tm.regions)
                if classify_circuit(tm, reg, reg.circuits[0]).index == 1)
    pinched = add_pinch(tm, idx1, SurfaceKind(False, crosscaps=1))
    assert mod2_degree(pinched) == 0
    assert geometric_degree(pinched) == 0


def test_verify_kneser_reports():
    tor = builtin_triangulation("torus_7")
    rep = verify_kneser(identity_map(tor))
    assert rep == {"chi_M": 0, "chi_N": 0, "d": 1, "deficit": 0, "holds": True,
                   "branch_defect": 0, "pinch_defect": 0}
    g2 = builtin_triangulation("genus2")
    tm = map_from_cover(random_cover(g2, 2, None, seed=3))
    rep = verify_kneser(tm)
    assert rep["chi_M"] == -4 and rep["d"] == 2 and rep["deficit"] == 0


def test_compose_with_covering_multiplies_degree():
    tor = builtin_triangulation("torus_7")
    for k, seed in ((2, 1), (3, 2)):
        q = random_cover(tor, k, None, seed=seed)
        total, _labels = induced_triangulation(q)
        for build, expected in (
                (lambda: identity_map(total), k),
                (lambda: scrambled(identity_map(total), 6, seed), k),
                (lambda: add_pinch(identity_map(total), 0,
                                   SurfaceKind(True, handles=1)), k)):
            composed = compose_with_covering(build(), q)
            assert geometric_degree(composed) == expected


def test_compose_with_covering_errors():
    tet = builtin_triangulation("sphere_tetra")
    tor = builtin_triangulation("torus_7")
    branched = random_cover(tet, 2, [2, 2], seed=0)
    rp = builtin_example("rp2_pinch")
    with pytest.raises(Branched):
        compose_with_covering(rp, branched)
    unbranched = random_cover(tor, 2, None, seed=1)
    with pytest.raises(InputError):
        compose_with_covering(rp, unbranched)   # wrong target complex


def test_signed_degree_matches_factored_degree():
    tor = builtin_triangulation("torus_7")
    tm = map_from_cover(random_cover(tor, 3, None, seed=2))
    d, dec = geometric_degree(tm, with_decomposition=True)
    assert orientation_true(dec)
    assert abs(signed_degree(tm)) == d
