import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from surfmap.covers import random_cover
from surfmap.errors import (BadEdge, BadTarget, NoCrosscap, NotAdjacent,
                            NotCollapsible, NotCompatible, NotEssential)
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import (RibbonCircuit, TransverseMap, add_pinch,
                                chi_domain, classify_circuit, edge_count,
                                identity_map, map_from_cover, mod2_degree,
                                validate_map)
from surfmap.moves import (boundary_surgery, collapse_edge, collapsible_edges,
                           insert_trivial_circle, is_normal,
                           join_isolated_circle, normalize, relocate_crosscap)
import surfmap.moves as moves_mod

from helpers import (assert_matches_oracle, branched_sphere_double,
                     builtin_example, domain_kind, flip_vertex,
                     normalize_observed, scrambled, tube_double)
from test_check_memo import SLICE, _slice_map


def check_invariants(before, after):
    assert validate_map(after).ok
    assert chi_domain(after) == chi_domain(before)
    assert domain_kind(after) == domain_kind(before)
    assert mod2_degree(after) == mod2_degree(before)


def test_identity_not_collapsible():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    assert collapsible_edges(tm) == []
    with pytest.raises(NotCollapsible):
        collapse_edge(tm, tm.edge_keys()[0])


def test_insert_then_join_round_trip():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    e0 = tm.target.triangle_edges(tm.regions[0].label)[0]
    ins = insert_trivial_circle(tm, 0, e0)
    assert edge_count(ins) == 7
    check_invariants(tm, ins)
    back = join_isolated_circle(ins, 0, 0, 0)
    assert edge_count(back) == 6
    check_invariants(tm, back)
    assert len(back.regions) == len(tm.regions)
    assert sorted(r.label for r in back.regions) == sorted(r.label for r in tm.regions)
    assert all(r.kind == SurfaceKind(True, 0, 0, 1) for r in back.regions)


def test_insert_bad_edge():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    off_edges = [e for e in range(len(tm.target.edges))
                 if e not in tm.target.triangle_edges(tm.regions[0].label)]
    with pytest.raises(BadEdge):
        insert_trivial_circle(tm, 0, off_edges[0])


def test_join_requires_adjacency_and_essential():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    e0 = tm.target.triangle_edges(tm.regions[0].label)[0]
    ins = insert_trivial_circle(tm, 0, e0)
    with pytest.raises(NotAdjacent):
        join_isolated_circle(ins, 0, 1, 0)
    disk_idx = len(ins.regions) - 1
    with pytest.raises(NotEssential):
        join_isolated_circle(ins, 0, disk_idx, 0)


def test_join_on_circle_only_map_impossible():
    fold, _ = normalize(builtin_example("fold_degree_zero"))
    assert is_normal(fold)["graph_like"]
    assert not fold.pairing and fold.isolated
    for ri, region in enumerate(fold.regions):
        for pos, _c in enumerate(region.circuits):
            with pytest.raises((NotEssential, NotAdjacent)):
                join_isolated_circle(fold, 0, ri, pos)


def test_scramble_preserves_everything():
    tm = map_from_cover(branched_sphere_double())
    work = tm
    for step in range(20):
        nxt = scrambled(work, 1, seed=step)
        check_invariants(work, nxt)
        assert edge_count(nxt) == edge_count(work) + 1
        work = nxt


def test_normalize_identity_is_trivial():
    tm = identity_map(builtin_triangulation("torus_7"))
    norm, trace = normalize(tm)
    assert trace == []
    assert edge_count(norm) == edge_count(tm)
    assert is_normal(norm)["normal"]


def test_normalize_restores_scrambled_cover_edge_count():
    tor = builtin_triangulation("torus_7")
    tm = map_from_cover(random_cover(tor, 2, None, seed=1))
    e0 = edge_count(tm)
    sc = scrambled(tm, 15, seed=4)
    assert edge_count(sc) == e0 + 15
    norm, trace = normalize(sc)
    assert edge_count(norm) == e0
    assert len(trace) == 15
    assert all(t["move"] == "join_isolated_circle" for t in trace)
    check_invariants(tm, norm)


def test_normalize_observer_sees_monotone_edges():
    sc = scrambled(builtin_example("fold_degree_zero"), 6, seed=9)
    log = []

    def obs(before, after, move):
        check_invariants(before, after)
        if move in ("collapse_edge", "join_isolated_circle"):
            assert edge_count(after) < edge_count(before)
        else:
            assert edge_count(after) == edge_count(before)
        log.append(move)

    norm, trace = normalize_observed(sc, obs)
    assert len(log) == len(trace)
    assert is_normal(norm)["normal"]


def test_fold_normalizes_to_circles():
    fold = builtin_example("fold_degree_zero")
    norm, trace = normalize(fold)
    state = is_normal(norm)
    assert state["graph_like"] and state["normal"]
    assert not norm.pairing and norm.isolated
    assert chi_domain(norm) == 2 and mod2_degree(norm) == 0
    check_invariants(fold, norm)


def test_collapse_produces_isolated_circles():
    fold = builtin_example("fold_degree_zero")
    k = collapsible_edges(fold)[0]
    out = collapse_edge(fold, k)
    check_invariants(fold, out)
    assert edge_count(out) < edge_count(fold)
    assert out.isolated    # a parallel strand closed into a circle


def test_surgery_requires_opposite_directions():
    tet = builtin_triangulation("sphere_tetra")
    same = tube_double(tet, 0, same_direction=True)
    annulus = next(ri for ri, r in enumerate(same.regions)
                   if len(r.circuits) == 2)
    region = same.regions[annulus]
    e0 = min(same.target.triangle_edges(region.label))
    darts = []
    for c in region.circuits:
        for i in range(0, len(c.seq), 2):
            if same.label_edge(c.seq[i][0]) == e0:
                darts.append(c.seq[i][0])
                break
    with pytest.raises(NotCompatible):
        boundary_surgery(same, annulus, darts[0], darts[1])


def test_surgery_enables_collapse():
    tet = builtin_triangulation("sphere_tetra")
    opp = tube_double(tet, 0, same_direction=False)
    found = moves_mod._find_surgery(opp)
    assert found is not None
    ri, d1, d2 = found
    out = boundary_surgery(opp, ri, d1, d2)
    check_invariants(opp, out)
    assert edge_count(out) == edge_count(opp)
    assert collapsible_edges(out)


# (base, d, branch, pinch): covers with seed 1, pinched in region 0 and
# scrambled 12 steps with seed 3, whose normalization states give
# surgeries on every far side the corridor glues
SURGERY_CELLS = (
    ("rp2_6", 2, None, SurfaceKind(False, crosscaps=1)),
    ("torus_7", 2, [2, 2], SurfaceKind(False, crosscaps=2)),
    ("sphere_tetra", 3, [3, 3], SurfaceKind(False, crosscaps=1)),
)


def _accepted_surgeries(tm):
    """Every surgery the move accepts on tm: on each region, for each pair
    of the strands of its ribbon circuits."""
    results = []
    for ri, region in enumerate(tm.regions):
        strands = sorted({tm.edge_key(d) for c in region.circuits
                          if isinstance(c, RibbonCircuit) for d, _side in c.seq[::2]})
        for k1, k2 in itertools.combinations(strands, 2):
            try:
                results.append(boundary_surgery(tm, ri, k1, k2))
            except NotCompatible:
                continue
    return results


def test_every_surgery_on_the_fold_matches_the_oracle(monkeypatch):
    """Surgeries on the fold reach the split branch, which no normalization
    runs: both strands lie on one circuit of a disk, and the cut leaves a
    disk of its own beside the region.  Surgeries on every third
    normalization state of the cells reach the three far sides: two
    regions merged, one far circuit cut in two, and a region glued to
    itself through a twisted strip."""
    fold = builtin_example("fold_degree_zero")
    results = _accepted_surgeries(fold)
    assert results
    for out in results:
        assert_matches_oracle(out)
        check_invariants(fold, out)
    assert any(len(out.regions) > len(fold.regions) for out in results)

    far_sides = set()
    rebuild = moves_mod._rebuild_regions

    def spy(regions, out, groups, stored, *args, **kwargs):
        if kwargs.get("context") == "boundary_surgery far":
            cut = sum(len(stored.positions.get(ri, ())) for ri in groups.regions)
            far_sides.add("merged" if len(groups.regions) == 2 else
                          "twisted" if groups.gluings[0][1] else f"{cut} cut")
        return rebuild(regions, out, groups, stored, *args, **kwargs)

    states = []
    for base, d, branch, pinch in SURGERY_CELLS:
        cover = random_cover(builtin_triangulation(base), d, branch, seed=1)
        tm = scrambled(add_pinch(map_from_cover(cover), 0, pinch), 12, seed=3)
        seen = [tm]
        normalize_observed(tm, lambda _before, after, _move: seen.append(after))
        states += seen[::3]
    monkeypatch.setattr(moves_mod, "_rebuild_regions", spy)
    for state in states:
        for out in _accepted_surgeries(state):
            assert_matches_oracle(out)
            check_invariants(state, out)
    assert far_sides == {"merged", "1 cut", "twisted"}


def test_a_collapse_folds_the_gauge_flip_into_its_rewire():
    """A collapse reads a twisted edge in the gauge that flips the chart at
    its second endpoint, without making the flipped map; the result is the
    collapse of the flipped map, where the edge is plain; on a plain edge
    it is the collapse of the flipped map, where the edge is twisted.
    Every collapsible edge of every state a collapse is made on: in the
    normalizations of the memo slices, of the fold and of the surgery
    cells' scrambles."""
    states = []
    cells = [scrambled(add_pinch(map_from_cover(random_cover(
        builtin_triangulation(base), d, branch, seed=1)), 0, pinch), 12, seed=3)
        for base, d, branch, pinch in SURGERY_CELLS]
    maps = ([_slice_map(*spec) for spec in SLICE]
            + [builtin_example("fold_degree_zero")] + cells)

    def observer(before, _after, move):
        if move == "collapse_edge":
            states.append(before)

    for tm in maps:
        normalize_observed(tm, observer)
    signs = Counter()
    for tm in states:
        for k in collapsible_edges(tm):
            folded = collapse_edge(tm, k)
            flipped = collapse_edge(flip_vertex(tm, tm.pairing[k]), k)
            assert folded.dumps() == flipped.dumps()
            assert_matches_oracle(folded)
            assert_matches_oracle(flipped)
            signs[tm.edge_sign[k], len(folded.isolated) > len(tm.isolated)] += 1
    # both signs, and twisted edges whose parallel strands close circles
    assert signs[-1, True] >= 100 and signs[-1, False] >= 20, signs
    assert signs[1, True] >= 5, signs


def test_relocate_crosscap_errors():
    rp = builtin_example("rp2_pinch")
    src = next(ri for ri, r in enumerate(rp.regions) if not r.kind.orientable)
    for tgt in range(len(rp.regions)):
        with pytest.raises(BadTarget):
            relocate_crosscap(rp, src, tgt)
    ok_src = next(ri for ri, r in enumerate(rp.regions) if r.kind.orientable)
    with pytest.raises(NoCrosscap):
        relocate_crosscap(rp, ok_src, src)


def test_relocating_a_crosscap_within_its_region_changes_nothing():
    """Source and target may be one region when it qualifies as a target
    (here after a circle is inserted into it): the move returns a checked
    copy of its input.  The normalizer never proposes it."""
    rp = builtin_example("rp2_pinch")
    src = next(ri for ri, r in enumerate(rp.regions) if not r.kind.orientable)
    tm = insert_trivial_circle(rp, src, rp.target.triangle_edges(rp.regions[src].label)[0])
    assert moves_mod._find_relocation(tm) != (src, src)
    same = relocate_crosscap(tm, src, src)
    assert same is not tm and same.to_json() == tm.to_json()
    check_invariants(tm, same)


def test_relocate_crosscap_and_followup():
    tm = map_from_cover(branched_sphere_double())
    idx1 = next(ri for ri, reg in enumerate(tm.regions)
                if classify_circuit(tm, reg, reg.circuits[0]).index == 1)
    pinched = add_pinch(tm, idx1, SurfaceKind(False, crosscaps=1))
    tgt = next(ri for ri, reg in enumerate(pinched.regions)
               if classify_circuit(pinched, reg, reg.circuits[0]).index == 2)
    moved = relocate_crosscap(pinched, idx1, tgt)
    check_invariants(pinched, moved)
    assert moved.regions[idx1].kind.orientable
    assert not moved.regions[tgt].kind.orientable
    norm, trace = normalize(pinched)
    moves = [t["move"] for t in trace]
    assert "relocate_crosscap" in moves and "boundary_surgery" in moves
    assert is_normal(norm)["graph_like"]
    check_invariants(pinched, norm)


def test_is_normal_flags():
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    state = is_normal(tm)
    assert state["normal"] and not state["graph_like"]
    sc = scrambled(tm, 1, seed=0)
    state2 = is_normal(sc)
    assert not state2["normal"] and not state2["no_mixed_circles"]
    fold = builtin_example("fold_degree_zero")
    assert not is_normal(fold)["no_collapsible_edge"]


def test_graph_like_map_keeps_its_crosscap():
    """A map whose preimage graph normalizes away is graph-like and hence
    normal, even where a crosscap relocation would still fit: normalize
    stops before surgery and relocation."""
    fold = builtin_example("fold_degree_zero")
    tm = scrambled(add_pinch(fold, 0, SurfaceKind(False, crosscaps=1)), 6, seed=1)
    norm, trace = normalize(tm)
    assert not norm.pairing and is_normal(norm)["graph_like"]
    assert moves_mod._find_relocation(norm) == (0, 1)
    assert "relocate_crosscap" not in {step["move"] for step in trace}
    assert norm.regions[0].kind.crosscaps == 1


def _circle_off_its_region():
    """sphere_tetra's identity map (tm), that map with a circle inserted
    into region 0 (ins), a copy of ins whose circle is labeled by an edge
    off region 0's triangle, which fails validate_map (bad), and darts of
    tm on region 0 (a) and off it (b)."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    edges = tm.target.triangle_edges(tm.regions[0].label)
    ins = insert_trivial_circle(tm, 0, edges[0])
    doc = ins.to_json()
    doc["isolated"][0]["edge"] = next(e for e in range(len(tm.target.edges))
                                      if e not in edges)
    return SimpleNamespace(
        tm=tm, ins=ins, bad=TransverseMap.from_json(doc),
        a=tm.regions[0].circuits[0].seq[0][0],
        b=next(d for d in tm.pairing if tm.label_edge(d) not in edges))


# move, its arguments over _circle_off_its_region's maps and darts, and
# the exception and text it refuses them with
ARGUMENT_REFUSALS = {
    "collapse_of_a_dart_that_is_no_edge_key": (
        collapse_edge, lambda m: (m.tm, m.tm.pairing[min(m.tm.pairing)]),
        NotCollapsible, "no edge with key 1"),
    "join_of_an_unknown_circle": (
        join_isolated_circle, lambda m: (m.ins, 1, 0, 0),
        NotAdjacent, "no isolated circle 1"),
    "join_into_an_unknown_region": (
        join_isolated_circle, lambda m: (m.ins, 0, len(m.ins.regions), 0),
        NotAdjacent, "no region 5"),
    "join_onto_an_unknown_circuit": (
        join_isolated_circle, lambda m: (m.ins, 0, 0, 2),
        NotEssential, "no such circuit"),
    "join_of_a_circle_off_the_region_triangle": (
        join_isolated_circle, lambda m: (m.bad, 0, 0, 0),
        NotAdjacent, "circle label is not an edge of the region's triangle"),
    "insert_into_an_unknown_region": (
        insert_trivial_circle, lambda m: (m.tm, len(m.tm.regions), 0),
        BadEdge, "no region 4"),
    "surgery_of_an_unknown_region": (
        boundary_surgery, lambda m: (m.tm, len(m.tm.regions), m.a, m.b),
        NotCompatible, "no region 4"),
    "surgery_of_an_unknown_dart": (
        boundary_surgery, lambda m: (m.tm, 0, 10 ** 6, m.a),
        NotCompatible, "no dart 1000000"),
    "surgery_of_a_strand_off_the_region": (
        boundary_surgery, lambda m: (m.tm, 0, m.b, m.a),
        NotCompatible, "strand does not bound the given region"),
    "surgery_of_one_strand_twice": (
        boundary_surgery, lambda m: (m.tm, 0, m.a, m.tm.pairing[m.a]),
        NotCompatible, "the two positions lie on one strand"),
    "relocation_from_an_unknown_region": (
        relocate_crosscap, lambda m: (m.tm, len(m.tm.regions), 0),
        NoCrosscap, "no region 4"),
    "relocation_to_an_unknown_region": (
        relocate_crosscap, lambda m: (m.tm, 0, len(m.tm.regions)),
        BadTarget, "no region 4"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_REFUSALS))
def test_a_move_refuses_arguments_that_name_nothing_it_can_rewrite(case):
    move, arguments, error, text = ARGUMENT_REFUSALS[case]
    with pytest.raises(error) as refused:
        move(*arguments(_circle_off_its_region()))
    assert str(refused.value) == text


def test_is_normal_reports_every_property_false_on_an_invalid_map():
    bad = _circle_off_its_region().bad
    assert not validate_map(bad).ok
    assert is_normal(bad) == {"valid": False, "no_collapsible_edge": False,
                              "no_mixed_circles": False, "regions_reduced": False,
                              "crosscap_separation": False, "graph_like": False,
                              "normal": False}
