import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from surfmap.errors import InvalidChi, InvalidSurface, UnknownName
from surfmap.surfaces import (BUILTIN_NAMES, SurfaceKind, Triangulation,
                              builtin_triangulation, classify_surface,
                              classify_with_boundary, complex_from_faces,
                              connected_sum_kind, derive_rotations)

from helpers import (disjoint_union, reference_derive_rotations, two_triangle_sphere,
                     with_entry, with_rotation)


def test_euler_char_examples():
    assert SurfaceKind(True, 0).euler == 2
    assert SurfaceKind(False, crosscaps=2).euler == 0
    assert SurfaceKind(True, 2).euler == -2


def test_classify_examples():
    assert classify_surface(0, True) == SurfaceKind(True, 1)
    assert classify_surface(1, False) == SurfaceKind(False, crosscaps=1)
    assert classify_surface(-3, False) == SurfaceKind(False, crosscaps=5)


def test_classify_rejects_bad_chi():
    with pytest.raises(InvalidChi):
        classify_surface(3, True)
    with pytest.raises(InvalidChi):
        classify_surface(1, True)
    with pytest.raises(InvalidChi):
        classify_surface(2, False)


@given(st.integers(min_value=0, max_value=40))
def test_classify_round_trip_orientable(g):
    kind = SurfaceKind(True, handles=g)
    assert classify_surface(kind.euler, True) == kind


@given(st.integers(min_value=1, max_value=40))
def test_classify_round_trip_nonorientable(c):
    kind = SurfaceKind(False, crosscaps=c)
    assert classify_surface(kind.euler, False) == kind


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=6))
def test_classify_with_boundary_round_trip(g, b):
    kind = SurfaceKind(True, handles=g, boundary=b)
    assert classify_with_boundary(kind.euler, b, True) == kind


def test_connected_sum_kinds():
    disk = SurfaceKind(True, 0, 0, 1)
    assert connected_sum_kind(disk, SurfaceKind(True, 1)) == SurfaceKind(True, 1, 0, 1)
    out = connected_sum_kind(SurfaceKind(True, 1, 0, 1), SurfaceKind(False, crosscaps=1))
    assert not out.orientable and out.euler == SurfaceKind(True, 1, 0, 1).euler - 1


def test_kind_invariants_enforced():
    with pytest.raises(InvalidSurface):
        SurfaceKind(True, handles=-1)
    with pytest.raises(InvalidSurface):
        SurfaceKind(False, crosscaps=0)
    with pytest.raises(InvalidSurface):
        SurfaceKind(True, handles=1, crosscaps=1)


EXPECTED = {
    "sphere_tetra": (4, 6, 4, 2, True),
    "rp2_6": (6, 15, 10, 1, False),
    "torus_7": (7, 21, 14, 0, True),
    "klein_8": (8, 24, 16, 0, False),
    "genus2": (11, 39, 26, -2, True),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_triangulations(name):
    tri = builtin_triangulation(name)
    v, e, f, chi, ori = EXPECTED[name]
    assert (len(tri.vertices), len(tri.edges), len(tri.triangles)) == (v, e, f)
    assert tri.euler == chi
    assert tri.orientability() == ori
    assert tri.validate() == []
    assert classify_surface(tri.euler, tri.orientability()) == classify_surface(chi, ori)


def test_unknown_builtin():
    with pytest.raises(UnknownName):
        builtin_triangulation("dodecahedron")


def test_loop_edge_is_reported():
    tri = builtin_triangulation("sphere_tetra")
    broken = Triangulation(list(tri.vertices),
                           [(0, 0)] + list(tri.edges[1:]),
                           [list(w) for w in tri.triangles],
                           {v: list(r) for v, r in tri.rotations.items()})
    assert any("loop edge" in p for p in broken.validate())


def test_open_complex_is_reported():
    tri = builtin_triangulation("sphere_tetra")
    broken = Triangulation(list(tri.vertices), list(tri.edges),
                           [list(w) for w in tri.triangles[:-1]],
                           {v: list(r) for v, r in tri.rotations.items()})
    assert any("triangle sides" in p for p in broken.validate())


def test_bad_rotation_is_reported():
    tri = builtin_triangulation("torus_7")     # degree-6 vertices
    rot = {v: list(r) for v, r in tri.rotations.items()}
    v0 = tri.vertices[0]
    rot[v0] = list(reversed(rot[v0]))  # reversal is fine on its own ...
    ok = Triangulation(list(tri.vertices), list(tri.edges),
                       [list(w) for w in tri.triangles], rot)
    assert ok.validate() == []
    r = rot[v0]
    rot[v0] = [r[1], r[0]] + r[2:]     # ... a transposition is not
    broken = Triangulation(list(tri.vertices), list(tri.edges),
                           [list(w) for w in tri.triangles], rot)
    assert any("disagrees with the triangle fan" in p for p in broken.validate())


def test_edge_compatible_is_side_symmetric():
    for name in BUILTIN_NAMES:
        tri = builtin_triangulation(name)
        for e in range(len(tri.edges)):
            # evaluating through either flanking triangle must agree;
            # edge_compatible uses the first, so recompute via the second
            (t1, k1), (t2, k2) = tri.edge_sides(e)
            got = tri.edge_compatible(e)
            walk = tri.triangles[t2]
            d = walk[k2]
            tail, head = tri.directed_ends(d)
            e_prev = walk[(k2 - 1) % 3][0]
            e_next = walk[(k2 + 1) % 3][0]
            other = (tri.rotation_succ(tail, e) == e_prev) == \
                    (tri.rotation_succ(head, e_next) == e)
            assert got == other


def test_rotation_ccw_bits_exist_for_orientable():
    for name in ("sphere_tetra", "torus_7", "genus2"):
        tri = builtin_triangulation(name)
        bits = tri.rotation_ccw_bits()
        assert set(bits) == set(tri.vertices)


def test_json_round_trip():
    for name in BUILTIN_NAMES:
        tri = builtin_triangulation(name)
        again = Triangulation.from_json(tri.to_json())
        assert again.to_json() == tri.to_json()
        assert again.validate() == []


def _turned(walk):
    """The triangle of `walk` walked the other way round."""
    return tuple((e, -s) for e, s in reversed(walk))


def _assert_frozen(tri):
    """Every field of tri refuses to be rebound or edited in place."""
    with pytest.raises(TypeError):
        tri.triangles[0] = _turned(tri.triangles[0])
    with pytest.raises(TypeError):
        tri.triangles[0][0] = (0, 1)
    with pytest.raises(TypeError):
        tri.edges[0] = (0, 1)
    with pytest.raises(AttributeError):
        tri.vertices.append(99)
    with pytest.raises(TypeError):
        tri.rotations[0] = tri.rotations[0][::-1]
    with pytest.raises(AttributeError):
        tri.rotations[0].reverse()
    for field in ("vertices", "edges", "triangles", "rotations"):
        with pytest.raises(FrozenInstanceError):
            setattr(tri, field, getattr(tri, field))


def test_a_triangulation_refuses_edits_in_place():
    """Turning triangle 0 of a torus_7 copy in place once left its cached
    signs behind: orientability() read False and validate() passed.  The
    assignment now raises, and the caches stay those of the surface; the
    turned triangulation is a new one, orientable and valid."""
    tri = Triangulation.from_json(builtin_triangulation("torus_7").to_json())
    assert tri.orientability() and tri.validate() == []
    _assert_frozen(tri)
    assert tri.orientability() and tri.validate() == []
    turned = replace(tri, triangles=(_turned(tri.triangles[0]), *tri.triangles[1:]))
    assert turned.orientability() and turned.validate() == []


def test_the_shared_builtin_refuses_edits_in_place():
    """builtin_triangulation hands every caller one object, so an edit by
    one caller would reach every later one."""
    tri = builtin_triangulation("torus_7")
    _assert_frozen(tri)
    assert builtin_triangulation("torus_7") is tri
    assert tri.validate() == [] and tri.orientability()


def test_the_constructor_freezes_what_it_is_given():
    """The lists given to the constructor are copied into tuples, so
    editing them later leaves the triangulation as it was; to_json still
    writes lists."""
    sphere = two_triangle_sphere()
    V, E = list(sphere.vertices), list(sphere.edges)
    T = [list(walk) for walk in sphere.triangles]
    R = {v: list(rot) for v, rot in sphere.rotations.items()}
    tri = Triangulation(V, E, T, R)
    V.append(3)
    E.append((0, 3))
    T[0].reverse()
    R[0].reverse()
    assert tri == sphere and tri.validate() == []
    assert all(type(walk) is tuple for walk in tri.triangles)
    assert all(type(rot) is tuple for rot in tri.rotations.values())
    assert tri.to_json() == sphere.to_json()
    assert type(tri.to_json()["triangles"][0]) is list


def test_a_triangulation_pickles_and_deep_copies_by_value():
    tri = builtin_triangulation("genus2")
    for again in (pickle.loads(pickle.dumps(tri)), copy.deepcopy(tri)):
        assert again == tri and again is not tri
        _assert_frozen(again)


def test_derive_rotations_returns_a_new_triangulation():
    sphere = two_triangle_sphere()
    tri = Triangulation(sphere.vertices, sphere.edges, sphere.triangles)
    derived = derive_rotations(tri)
    assert derived is not tri and tri.rotations == {}
    assert derived.rotations == {0: (2, 0), 1: (0, 1), 2: (1, 2)}
    assert derived.validate() == []


def test_derive_rotations_refuses_a_vertex_without_corners():
    sphere = two_triangle_sphere()
    tri = Triangulation([*sphere.vertices, 3], sphere.edges, sphere.triangles)
    with pytest.raises(InvalidSurface, match="^vertex 3 has no incident triangle corners$"):
        derive_rotations(tri)


def test_derive_rotations_refuses_an_edge_end_on_no_corner():
    sphere = two_triangle_sphere()
    tri = Triangulation(sphere.vertices, [*sphere.edges, (0, 1)], sphere.triangles)
    with pytest.raises(InvalidSurface, match="^vertex link at 0 is not a cycle$"):
        derive_rotations(tri)


def test_derive_rotations_refuses_a_link_of_two_cycles():
    """Two tetrahedra sharing vertex 0: its link is two triangles."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2),
             (0, 4, 5), (0, 5, 6), (0, 6, 4), (4, 6, 5)]
    with pytest.raises(InvalidSurface, match="^vertex link at 0 is not a single cycle$"):
        complex_from_faces(faces)


def test_derive_rotations_refuses_a_link_that_does_not_close():
    """At vertex 0 two corners make a cycle through edges 0 and 1, and a
    third turns from edge 2 back onto edge 2: the walk from the first
    corner comes round after two corners, and the one left over does
    not join its ends."""
    E = [(0, 1), (0, 2), (0, 3), (1, 2)]
    T = [[(0, 1), (3, 1), (1, -1)], [(1, 1), (3, -1), (0, -1)],
         [(2, -1), (2, 1), (2, -1)]]
    with pytest.raises(InvalidSurface, match="^vertex link at 0 does not close$"):
        derive_rotations(Triangulation([0, 1, 2, 3], E, T))


def test_derive_rotations_refuses_a_one_edge_link():
    """Vertex 1 has one edge, and its one corner turns from that edge back
    onto it: the edge's slot holds that corner twice, the walk is done
    before it starts, and no corner is left over to close it."""
    tri = Triangulation([1, 0, 2], [(0, 1), (0, 2)], [[(0, 1), (0, -1), (1, 1)]])
    for derive in (derive_rotations, reference_derive_rotations):
        with pytest.raises(InvalidSurface, match="^vertex link at 1 is not a single cycle$"):
            derive(tri)


def _repeat_first_side(tri):
    (e, s), _, third = tri.triangles[0]
    return with_entry(tri, "triangles", 0, ((e, s), (e, -s), third))


@pytest.mark.parametrize("edit, problems", [
    (lambda tri: replace(tri, vertices=(*tri.vertices, 0)), ["duplicate vertex ids"]),
    (lambda tri: with_entry(tri, "edges", 2, (0, 9)), ["edge 2 references unknown vertex"]),
    (lambda tri: with_entry(tri, "edges", 0, (0, 0)), ["loop edge 0 at vertex 0"]),
    (lambda tri: with_entry(tri, "triangles", 1, tri.triangles[1][:2]),
     ["triangle 1 does not have 3 sides", "edge 4 lies on 1 triangle sides, expected 2"]),
    (lambda tri: with_entry(tri, "triangles", 2, (*tri.triangles[2], (1, 1))),
     ["triangle 2 does not have 3 sides", "edge 1 lies on 3 triangle sides, expected 2"]),
    (_repeat_first_side,
     ["triangle 0 boundary walk does not close", "triangle 0 repeats an edge",
      "edge 0 lies on 3 triangle sides, expected 2",
      "edge 1 lies on 1 triangle sides, expected 2"]),
    (lambda tri: replace(tri, triangles=(*tri.triangles, tri.triangles[0])),
     ["edge 0 lies on 3 triangle sides, expected 2",
      "edge 1 lies on 3 triangle sides, expected 2",
      "edge 2 lies on 3 triangle sides, expected 2"]),
    (lambda tri: replace(tri, triangles=tri.triangles[:-1]),
     ["edge 1 lies on 1 triangle sides, expected 2",
      "edge 3 lies on 1 triangle sides, expected 2",
      "edge 5 lies on 1 triangle sides, expected 2"]),
    (lambda tri: with_entry(tri, "triangles", 3, [(e, -s) for e, s in tri.triangles[3]]),
     ["triangle 3 boundary walk does not close"]),
    (lambda tri: with_rotation(tri, 0, tri.rotations[0][1:]),
     ["rotation at 0 is not a cyclic order of its edge ends"]),
    (lambda tri: with_rotation(tri, 1, (*tri.rotations[1], tri.rotations[1][0])),
     ["rotation at 1 is not a cyclic order of its edge ends"]),
    (lambda tri: replace(tri, rotations={v: r for v, r in tri.rotations.items() if v != 2}),
     ["missing rotation at vertex 2"]),
])
def test_validate_reports_exactly(edit, problems):
    assert edit(builtin_triangulation("sphere_tetra")).validate() == problems


def test_validate_reports_a_fan_the_rotation_disagrees_with_exactly():
    tri = builtin_triangulation("torus_7")
    r = tri.rotations[0]
    assert with_rotation(tri, 0, (r[1], r[0], *r[2:])).validate() == [
        "rotation at 0 disagrees with the triangle fan"]


def test_validate_reports_a_disconnected_complex_exactly():
    tet = builtin_triangulation("sphere_tetra")
    assert disjoint_union(tet, tet).validate() == ["complex is not connected"]
    assert Triangulation([], [], [], {}).validate() == ["complex is not connected"]


def test_validate_reports_a_characteristic_of_no_closed_surface_exactly():
    """A lone vertex passes every local check; V-E+F = 1 is odd with no
    triangle to make it nonorientable."""
    assert Triangulation([0], [], [], {0: []}).validate() == [
        "V-E+F matches no closed surface"]
