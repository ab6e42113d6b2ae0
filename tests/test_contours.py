import pytest

from surfmap.contours import synthesize_contour
from surfmap.covers import random_cover
from surfmap.errors import GraphLike
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import add_pinch, identity_map, map_from_cover
from surfmap.factorize import geometric_degree

from helpers import builtin_example


def decompose(tm):
    _d, dec = geometric_degree(tm, with_decomposition=True)
    return dec


def test_identity_contour_is_empty():
    dec = decompose(identity_map(builtin_triangulation("sphere_tetra")))
    contour = synthesize_contour(dec)
    assert contour.folds == [] and contour.nodes == 0


def test_two_index3_branch_points():
    tet = builtin_triangulation("sphere_tetra")
    tm = map_from_cover(random_cover(tet, 3, [3, 3], seed=7))
    contour = synthesize_contour(decompose(tm))
    assert [f.cusps for f in contour.folds] == [5, 5]
    assert all(f.origin == "branch" for f in contour.folds)
    assert contour.nodes == 0


def test_rp2_pinch_contour():
    contour = synthesize_contour(decompose(builtin_example("rp2_pinch")))
    assert [f.cusps for f in contour.folds] == [1, 1]
    assert all(f.origin == "moebius_pinch" for f in contour.folds)
    assert contour.nodes == 0
    assert contour.notes


def test_handle_pinch_contour():
    tet = builtin_triangulation("sphere_tetra")
    tm = add_pinch(identity_map(tet), 0, SurfaceKind(True, handles=2))
    contour = synthesize_contour(decompose(tm))
    assert [f.cusps for f in contour.folds] == [4, 4]
    assert all(f.origin == "handle_pinch" for f in contour.folds)


def test_fold_count_formula():
    tet = builtin_triangulation("sphere_tetra")
    tm = map_from_cover(random_cover(tet, 2, [2, 2], seed=1))
    tm = add_pinch(tm, 0, SurfaceKind(True, handles=1))
    dec = decompose(tm)
    contour = synthesize_contour(dec)
    expected = len(dec.branch_indices) + sum(
        p.kind.handles if p.kind.orientable else 2 * p.kind.crosscaps
        for p in dec.pinches)
    assert len(contour.folds) == expected
    assert contour.nodes == 0


def test_graph_like_has_no_contour():
    dec = decompose(builtin_example("fold_degree_zero"))
    with pytest.raises(GraphLike):
        synthesize_contour(dec)
