import copy
import pickle
from dataclasses import replace

import pytest

from surfmap import covers
from surfmap.covers import MonodromyCover, cover_chi, random_cover
from surfmap.errors import (BadKind, DisconnectedCover, InconsistentParity,
                            InternalInconsistency, InvalidSurface, NotOrientable,
                            Unsatisfiable, UnknownName)
from surfmap.surfaces import (SurfaceKind, Triangulation, builtin_triangulation,
                              classify_surface, derive_rotations)
from surfmap.transverse import (IsoSide, Region, TransverseMap,
                                add_pinch, chi_domain, classify_circuit,
                                domain_orientable, edge_count, identity_map,
                                lift_facts, map_from_cover, mod2_degree,
                                signed_degree, validate_map)
from surfmap.moves import insert_trivial_circle

from helpers import (add_circle, assembled_map_from_cover,
                     assert_facts_match_fresh, assert_matches_oracle,
                     branched_sphere_double, builtin_example, domain_kind,
                     flip_vertex, tube_double,
                     two_triangle_sphere, with_rotations_reversed)
from record_sampler_digests import CASES

BUILTINS = ("sphere_tetra", "rp2_6", "torus_7", "klein_8", "genus2")


@pytest.mark.parametrize("name", BUILTINS)
def test_identity_map(name):
    tri = builtin_triangulation(name)
    tm = identity_map(tri)
    rep = validate_map(tm)
    assert rep.ok
    assert chi_domain(tm) == tri.euler
    assert domain_kind(tm) == classify_surface(tri.euler, tri.orientability())
    assert edge_count(tm) == len(tri.edges)
    assert mod2_degree(tm) == 1
    for cls in rep.circuit_classes.values():
        assert cls.variant == "essential" and cls.index == 1


def test_identity_map_refuses_an_invalid_target():
    """The one-sheeted cover does not check its base, so identity_map
    does."""
    tri = builtin_triangulation("sphere_tetra")
    loop = replace(tri, edges=((0, 0), *tri.edges[1:]))
    with pytest.raises(InvalidSurface, match="loop edge"):
        identity_map(loop)


def test_identity_signed_degree():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    assert signed_degree(tm) == 1


def test_signed_degree_requires_orientable():
    tm = identity_map(builtin_triangulation("rp2_6"))
    with pytest.raises(NotOrientable):
        signed_degree(tm)


def test_side_coherence_violation_detected():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    # relabel one region by a non-adjacent triangle
    bad = tm.copy()
    r0 = bad.regions[0]
    e_on = set(bad.target.triangle_edges(r0.label))
    for t in range(len(bad.target.triangles)):
        if len(e_on & set(bad.target.triangle_edges(t))) < 3 and t != r0.label:
            bad.replace(regions={0: Region(t, r0.kind, r0.circuits)})
            break
    rep = validate_map(bad)
    assert not rep.ok
    assert any("flanked by regions" in p or "corner" in p for p in rep.problems)


def test_mod2_parity_guard():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    bad = tm.copy()
    # relabel every dart at one preimage vertex to a different target vertex
    facts = bad.ribbon_facts()
    rep0 = facts.vertex_reps[0]
    other = [P for P in bad.target.vertices if P != bad.vertex_label[rep0]][0]
    vertex_label, = bad.own("vertex_label")
    for d in facts.vertex_darts(rep0):
        vertex_label[d] = other
    with pytest.raises(InconsistentParity):
        mod2_degree(bad)


def test_map_from_cover_trivial_is_identity_like():
    tri = builtin_triangulation("sphere_tetra")
    cover = MonodromyCover(tri, 1, {e: (1,) for e in range(6)}, {})
    tm = map_from_cover(cover)
    assert chi_domain(tm) == 2
    assert edge_count(tm) == 6
    assert mod2_degree(tm) == 1


def test_map_from_cover_branched_sphere():
    tm = map_from_cover(branched_sphere_double())
    rep = validate_map(tm)
    assert rep.ok
    assert domain_kind(tm).name() == "sphere"
    indices = sorted(c.index for c in rep.circuit_classes.values())
    assert indices == [1, 1, 1, 1, 2, 2]
    assert mod2_degree(tm) == 0


def test_map_from_cover_orientation_double():
    rp2 = builtin_triangulation("rp2_6")
    cover = random_cover(rp2, 2, None, seed=1)
    tm = map_from_cover(cover)
    assert domain_kind(tm) == SurfaceKind(True, 0)   # the sphere


BRANCH_CHOICES = (None, (2, 2), (3, 3), (2, 2, 2, 2), (4, 4), (3, 2, 2, 3))


def _base(name):
    if name == "two_triangles":
        return two_triangle_sphere()
    if name.endswith(" turned"):
        tri = builtin_triangulation(name.split()[0])
        return with_rotations_reversed(tri, tri.vertices[::2])
    return builtin_triangulation(name)


def assert_lift_checked_by_its_base(tm: TransverseMap, d: int):
    """A lift of d > 1 sheets has ribbon facts pulled back from the
    one-sheeted lift, the one-sheeted lift has its own, and either way
    they and the map's answers are the ones computed from scratch."""
    assert (tm.ribbon_facts()._lift is not None) == (d > 1)
    assert_facts_match_fresh(tm)
    assert_matches_oracle(tm)


@pytest.mark.parametrize("name", BUILTINS + ("two_triangles", "torus_7 turned",
                                             "klein_8 turned"))
def test_direct_lift_equals_the_assembled_route(name):
    """map_from_cover reads the lift off the cover; reading it out of the
    assembled total space gives the same document byte for byte: d <= 6
    with every branch choice, two seeds each (six on the small sphere).
    On a built-in base these are the stored sampler cases with d <= 6.
    On a turned base, half the lifts turn against their fans.  Every
    lift's facts, pulled back from the one-sheeted lift, are the fresh
    ones."""
    tri = _base(name)
    n = 0
    for d in range(1, 7):
        for branch in BRANCH_CHOICES:
            for seed in range(6 if name == "two_triangles" else 2):
                try:
                    cover = random_cover(tri, d, list(branch or ()) or None, seed=seed)
                except Unsatisfiable:
                    continue
                want = assembled_map_from_cover(cover)
                assert validate_map(want).ok
                tm = map_from_cover(cover)
                assert tm.dumps() == want.dumps(), (d, branch, seed)
                assert_lift_checked_by_its_base(tm, d)
                n += 1
    assert n >= 16, n


def test_the_direct_lifts_hold_every_stored_sampler_case():
    """The built-in grid of the direct-lift tests is the stored sampler
    cases (tests/record_sampler_digests.py) but two: the d = 8 case,
    which the d = 8 test lifts, and a budget that runs out."""
    grid = {(name, d, tuple(branch or ()), seed, None) for name in BUILTINS
            for d in range(1, 7) for branch in BRANCH_CHOICES for seed in (0, 1)}
    cases = {(base, d, tuple(branch or ()), seed, budget)
             for base, d, branch, seed, budget in CASES}
    assert cases - grid == {("genus2", 8, (2, 2), 1, None), ("rp2_6", 4, (3,), 0, 400)}
    assert grid <= cases


@pytest.mark.parametrize("name, d, branch", [("torus_7", 7, None),
                                             ("torus_7", 7, [3, 3])])
def test_direct_lift_equals_the_assembled_route_at_d7(name, d, branch):
    tri = builtin_triangulation(name)
    for seed in range(4):
        cover = random_cover(tri, d, branch, seed=seed)
        tm = map_from_cover(cover)
        assert tm.dumps() == assembled_map_from_cover(cover).dumps()
        assert_lift_checked_by_its_base(tm, d)


@pytest.mark.parametrize("name, branch, seed", [("genus2", [2, 2], 1),
                                                ("torus_7", [4, 4], 1),
                                                ("torus_7", [4, 4], 2)])
def test_direct_lift_equals_the_assembled_route_at_d8(name, branch, seed):
    """The CLI's bound: the stored d = 8 sampler case and two index-4
    covers of the torus, each sampled in well under a second."""
    cover = random_cover(builtin_triangulation(name), 8, branch, seed=seed)
    tm = map_from_cover(cover)
    assert tm.dumps() == assembled_map_from_cover(cover).dumps()
    assert_lift_checked_by_its_base(tm, 8)


def _digon_tetra():
    """The tetrahedron with a second edge 6 from 0 to 1 and a vertex 4 of
    degree 2 in the digon between edges 0 and 6."""
    V = [0, 1, 2, 3, 4]
    E = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 1), (4, 0), (4, 1)]
    T = [[(6, 1), (1, 1), (2, -1)], [(0, 1), (4, 1), (3, -1)],
         [(1, 1), (5, 1), (4, -1)], [(2, 1), (5, 1), (3, -1)],
         [(7, 1), (0, 1), (8, -1)], [(8, 1), (6, -1), (7, -1)]]
    return derive_rotations(Triangulation(V, E, T))


@pytest.mark.parametrize("turned", [(), (4,), (0, 4)])
def test_branch_point_next_to_a_two_edge_vertex(turned):
    """A lift over a two-edge vertex counts +1 in its copies' band signs,
    as validate_map's local sign reads it, whichever way it turns.  The
    assembled route took the turn of the cone spokes there and gave signs
    validate_map refuses; without a branch point the two routes agree."""
    tri = with_rotations_reversed(_digon_tetra(), turned)
    cover = random_cover(tri, 2, [2, 2], seed=0)
    assert 4 in cover.branch    # a branch point in the digon
    assert not validate_map(assembled_map_from_cover(cover)).ok
    tm = map_from_cover(cover)
    assert chi_domain(tm) == cover_chi(cover) == 2 and mod2_degree(tm) == 0
    assert_lift_checked_by_its_base(tm, 2)
    plain = random_cover(tri, 1, None, seed=0)
    one = map_from_cover(plain)
    assert one.dumps() == assembled_map_from_cover(plain).dumps()
    assert_lift_checked_by_its_base(one, 1)


def _swap_rotation_entries(tm):
    """Two rotation entries at one vertex swapped: it splits in two."""
    a = tm.ribbon_facts().vertex_reps[0]
    rotation, = tm.own("rotation")
    b = rotation[a]
    rotation[a], rotation[b] = rotation[b], rotation[a]


def _flip_band_sign(tm):
    k = tm.ribbon_facts().edge_keys[0]
    sign, = tm.own("edge_sign")
    sign[k] = -sign[k]


def _move_dart_label(tm):
    """Dart 0 labelled as a dart of another copy, over another edge."""
    label, = tm.own("dart_label")
    label[0] = next(label[d] for d in label if label[d][0] != label[0][0])


def _wrap_vertex_twice(tm):
    """Two lifts of one base vertex joined into one vertex that winds
    twice around it: the projection still commutes with every table."""
    vertex_of = tm.ribbon_facts().vertex_of
    label = tm.dart_label
    a = 0
    b = next(d for d in label if label[d] == label[a] and vertex_of[d] != vertex_of[a])
    rotation, = tm.own("rotation")
    rotation[a], rotation[b] = rotation[b], rotation[a]


@pytest.mark.parametrize("tamper", [_swap_rotation_entries, _flip_band_sign,
                                    _move_dart_label, _wrap_vertex_twice])
def test_a_tampered_lift_gets_fresh_facts(tamper):
    """A lift's facts are pulled back from the one-sheeted lift only when
    its tables project onto that lift's, vertex orbits of the same length
    included; a lift broken in one entry gets fresh facts, and its check
    reports what the from-scratch check of its document reports."""
    lift = map_from_cover(random_cover(builtin_triangulation("torus_7"), 3, [3, 3],
                                       seed=0))
    assert lift_facts(lift.copy())._lift is not None
    bad = lift.copy()
    tamper(bad)
    facts = lift_facts(bad)
    assert facts._lift is None
    bad.hold(facts)
    assert_facts_match_fresh(bad)
    problems = validate_map(bad).problems
    assert problems
    assert problems == validate_map(TransverseMap.from_json(bad.to_json())).problems


def test_orientability_disagreeing_with_the_cover_is_an_internal_inconsistency(
        monkeypatch):
    solve = covers.cover_solve

    def flipped(cover):
        uf = solve(cover)
        uf.ok = not uf.ok
        return uf

    monkeypatch.setattr(covers, "cover_solve", flipped)
    with pytest.raises(InternalInconsistency, match="orientability"):
        map_from_cover(random_cover(builtin_triangulation("torus_7"), 2, None, seed=0))


def test_map_from_cover_rejects_disconnected():
    tri = builtin_triangulation("sphere_tetra")
    cover = MonodromyCover(tri, 2, {e: (1, 2) for e in range(6)}, {})
    with pytest.raises(DisconnectedCover):
        map_from_cover(cover)


def test_signed_degree_double_cover():
    tor = builtin_triangulation("torus_7")
    tm = map_from_cover(random_cover(tor, 2, None, seed=1))
    assert abs(signed_degree(tm)) == 2
    assert signed_degree(tm) == signed_degree(tm)   # deterministic
    assert mod2_degree(tm) == 0


def test_add_pinch():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    torus = add_pinch(tm, 1, SurfaceKind(True, handles=1))
    assert domain_kind(torus) == SurfaceKind(True, 1)
    assert torus.pairing == tm.pairing            # graph untouched
    rp2 = add_pinch(tm, 0, SurfaceKind(False, crosscaps=1))
    assert domain_kind(rp2) == SurfaceKind(False, crosscaps=1)
    klein_on_torus = add_pinch(identity_map(builtin_triangulation("torus_7")),
                               0, SurfaceKind(False, crosscaps=2))
    assert chi_domain(klein_on_torus) == -2
    assert not domain_orientable(klein_on_torus)
    # a handle glued into one region of the torus identity: genus 2
    genus2_on_torus = add_pinch(identity_map(builtin_triangulation("torus_7")),
                                0, SurfaceKind(True, handles=1))
    assert chi_domain(genus2_on_torus) == -2
    assert domain_kind(genus2_on_torus) == SurfaceKind(True, 2)


def test_add_pinch_rejects_sphere():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    with pytest.raises(BadKind):
        add_pinch(tm, 0, SurfaceKind(True, 0))


def test_builtin_examples():
    rp = builtin_example("rp2_pinch")
    assert domain_kind(rp) == SurfaceKind(False, crosscaps=1)
    assert mod2_degree(rp) == 1
    nonori = [r for r in rp.regions if not r.kind.orientable]
    assert len(nonori) == 1 and len(nonori[0].circuits) == 1
    cls = classify_circuit(rp, nonori[0], nonori[0].circuits[0])
    assert cls.variant == "essential" and cls.index == 1

    fold = builtin_example("fold_degree_zero")
    assert validate_map(fold).ok
    assert domain_kind(fold) == SurfaceKind(True, 0)
    assert fold.pairing                       # has vertices
    assert mod2_degree(fold) == 0

    with pytest.raises(UnknownName):
        builtin_example("nope")


def test_flip_vertex_is_gauge():
    for name in ("sphere_tetra", "rp2_6"):
        tm = identity_map(builtin_triangulation(name))
        flipped = flip_vertex(tm, tm.ribbon_facts().vertex_reps[0])
        assert validate_map(flipped).ok
        assert chi_domain(flipped) == chi_domain(tm)
        assert domain_kind(flipped) == domain_kind(tm)
        assert mod2_degree(flipped) == mod2_degree(tm)


def test_tube_double_direction_data():
    tet = builtin_triangulation("sphere_tetra")
    same = tube_double(tet, 0, same_direction=True)
    opp = tube_double(tet, 0, same_direction=False)
    for tm in (same, opp):
        assert validate_map(tm).ok
        assert domain_kind(tm) == SurfaceKind(True, 0)
        assert mod2_degree(tm) == 0
    assert signed_degree(same) in (2, -2)
    assert signed_degree(opp) == 0


def test_json_round_trip():
    for build in (lambda: identity_map(builtin_triangulation("klein_8")),
                  lambda: builtin_example("rp2_pinch"),
                  lambda: builtin_example("fold_degree_zero")):
        tm = build()
        again = TransverseMap.from_json(tm.to_json())
        assert again.to_json() == tm.to_json()
        assert validate_map(again).ok
        assert chi_domain(again) == chi_domain(tm)


def test_disconnected_domain_detected():
    from surfmap.errors import Disconnected
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    double = tm.copy()
    off = max(tm.pairing) + 1
    pairing, rotation, edge_sign, vertex_label, dart_label = double.own(
        "pairing", "rotation", "edge_sign", "vertex_label", "dart_label")
    pairing.update({d + off: p + off for d, p in tm.pairing.items()})
    rotation.update({d + off: r + off for d, r in tm.rotation.items()})
    edge_sign.update({k + off: s for k, s in tm.edge_sign.items()})
    vertex_label.update({d + off: v for d, v in tm.vertex_label.items()})
    dart_label.update({d + off: l for d, l in tm.dart_label.items()})
    from surfmap.transverse import RibbonCircuit
    from surfmap.surfaces import SurfaceKind
    double.replace(append=[
        Region(reg.label, SurfaceKind(True, 0, 0, 1),
               tuple(RibbonCircuit(tuple((d + off, x) for (d, x) in c.seq))
                     for c in reg.circuits))
        for reg in tm.regions])
    assert validate_map(double).ok          # locally fine, two components
    with pytest.raises(Disconnected, match="^domain has 2 components$"):
        chi_domain(double)


@pytest.mark.parametrize("directions, kind", [
    ((1, 1), SurfaceKind(True, 1)),
    ((-1, -1), SurfaceKind(True, 1)),
    ((1, -1), SurfaceKind(False, crosscaps=2)),
    ((-1, 1), SurfaceKind(False, crosscaps=2)),
])
def test_isolated_circle_between_adjacent_regions(directions, kind):
    """A tube from one disk of the sphere's identity map to the disk across
    one of its edges.  The two disks' stored circuits run along that edge
    the same way, so their reference orientations are opposite: the tube
    keeps the domain orientable (a torus) when both regions induce the
    same direction on the circle, and makes a Klein bottle otherwise."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    T = tm.target
    edge = T.triangle_edges(tm.regions[0].label)[0]
    across = next(t for t, _ in T.edge_sides(edge) if t != tm.regions[0].label)
    b = next(ri for ri, r in enumerate(tm.regions) if r.label == across)
    cid = add_circle(tm, edge)
    for side, ri in enumerate((0, b)):
        region = tm.regions[ri]
        side_entry = IsoSide(cid, side, directions[side])
        tm.replace(regions={ri: Region(region.label, SurfaceKind(True, 0, 0, 2),
                                       region.circuits + (side_entry,))})
    assert validate_map(tm).ok
    assert domain_kind(tm) == kind


def test_dangling_circle_id_survives_the_round_trip():
    """Documents number circles by position and maps by stable id; a side
    naming a circle that is gone is written out of range, so it is still
    reported after reading the document back."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    edge = tm.target.triangle_edges(tm.regions[0].label)[0]
    for _ in range(3):
        tm = insert_trivial_circle(tm, 0, edge)
    tm.replace(circles={next(iter(tm.isolated)): None})
    problems = validate_map(tm).problems
    assert problems == ["region 0 references a bad isolated side",
                        "region 4 references a bad isolated side"]
    fresh = TransverseMap.from_json(tm.to_json())
    assert validate_map(fresh).problems == problems
    assert TransverseMap.from_json(fresh.to_json()).to_json() == fresh.to_json()


def test_a_map_pickles_and_deep_copies_by_its_fields():
    """A map holds its tables and circles as read-only mappings, which have
    no pickle: it pickles and deep-copies by its fields, as a map whose
    check runs from scratch, with tables of its own."""
    tm = insert_trivial_circle(builtin_example("rp2_pinch"), 0, 0)
    assert validate_map(tm).ok
    for again in (pickle.loads(pickle.dumps(tm)), copy.deepcopy(tm)):
        assert again.dumps() == tm.dumps()
        assert again.tiling() is None and again.pairing is not tm.pairing
        assert validate_map(again).ok
        assert_matches_oracle(again)
