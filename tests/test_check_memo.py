"""The memoized self-checks against the from-scratch oracle.

Every map carries ribbon facts that may have been inherited from the map
it was copied from.  The oracle is the same question asked of
TransverseMap.from_json(tm.to_json()), which shares nothing with `tm`.
"""

import json
import random
from collections import Counter

import pytest

from surfmap import cli, moves, transverse
from surfmap.covers import random_cover
from surfmap.errors import Disconnected, InternalInconsistency, Stuck
from surfmap.moves import (_post_move_check, collapse_edge, collapsible_edges,
                           insert_trivial_circle, normalize)
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import (IsolatedCircle, IsoSide, Region, RibbonCircuit,
                                TransverseMap, add_pinch, chi_domain, classify_circuit, domain_orientable,
                                domain_solve, identity_map, map_from_cover,
                                mod2_degree, rotation_orbit, signed_degree,
                                validate_map)

from helpers import (add_circle, assert_facts_match_fresh, assert_matches_oracle,
                     builtin_example, find_join_by_scan, flip_vertex,
                     normalize_observed, scrambled, tube_double,
                     two_triangle_sphere)

# (base, d, branch, pinch, cover seed); together their normalizations run
# every move, the dart-rewiring ones included
SLICE = (
    ("sphere_tetra", 2, [2, 2], SurfaceKind(False, crosscaps=1), 0),
    ("sphere_tetra", 2, [2, 2], SurfaceKind(False, crosscaps=3), 0),
    ("rp2_6", 2, None, SurfaceKind(False, crosscaps=2), 1),
    ("torus_7", 2, [2, 2], SurfaceKind(True, handles=1), 0),
    ("klein_8", 2, None, SurfaceKind(False, crosscaps=1), 2),
    ("genus2", 2, [2, 2], SurfaceKind(False, crosscaps=2), 0),
    ("sphere_tetra", 3, [3, 3], None, 1),
)


def _slice_map(base_name, d, branch, pinch, seed, check=None):
    tm = map_from_cover(random_cover(builtin_triangulation(base_name), d,
                                     branch, seed=seed, max_tries=800))
    if pinch is not None:
        tm = add_pinch(tm, seed % len(tm.regions), pinch)
    return scrambled(tm, 8, seed=seed + 11, check=check)


def test_every_move_of_a_corpus_slice_matches_the_oracle():
    seen = set()

    def observer(before, after, move):
        seen.add(move)
        assert_matches_oracle(after)
        assert_matches_oracle(before)

    for spec in SLICE:
        tm = _slice_map(*spec)
        assert_matches_oracle(tm)
        normalize_observed(tm, observer)
    assert seen == {"collapse_edge", "join_isolated_circle", "boundary_surgery",
                    "relocate_crosscap"}


def test_normalize_calls_the_moves_bound_in_the_module(monkeypatch):
    """normalize looks every move up in surfmap.moves when it applies it,
    so wrappers installed on the module (as perfbench's tracer does) see
    each application the trace records."""
    reductions = ("collapse_edge", "join_isolated_circle", "boundary_surgery",
                  "relocate_crosscap")
    calls = Counter()

    def counting(name, move):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return move(*args, **kwargs)
        return wrapper

    for name in reductions:
        monkeypatch.setattr(moves, name, counting(name, getattr(moves, name)))
    logged = Counter()
    for spec in SLICE:
        _norm, trace = normalize(_slice_map(*spec))
        logged.update(step["move"] for step in trace)
    assert set(logged) == set(reductions)
    assert calls == logged


def test_long_scramble_of_a_large_map_matches_the_oracle():
    base = builtin_triangulation("genus2")
    tm = map_from_cover(random_cover(base, 4, [2, 2], seed=1))
    tm = add_pinch(tm, 0, SurfaceKind(False, crosscaps=2))
    rng = random.Random(9)
    for _ in range(64):
        ri = rng.randrange(len(tm.regions))
        edges = tm.target.triangle_edges(tm.regions[ri].label)
        tm = insert_trivial_circle(tm, ri, rng.choice(edges))
        assert_matches_oracle(tm)
    assert len(tm.edge_keys()) + len(tm.isolated) >= 190


def _klein_scramble(check=None) -> TransverseMap:
    base = builtin_triangulation("klein_8")
    tm = map_from_cover(random_cover(base, 6, [3, 3], seed=0))
    tm = add_pinch(tm, 0, SurfaceKind(False, crosscaps=2))
    return scrambled(tm, 64, seed=0, check=check)


def test_klein_target_at_d6_scramble_and_normalize_match_the_oracle():
    """The corpus stops at d = 4 and never targets klein_8; the CLI takes
    d <= 8 and 64 scramble steps.  Every step of the scramble and every
    move of this normalization (all four reductions run) match the
    oracle, and keep chi, orientability and the mod-2 degree."""
    tm = _klein_scramble(check=assert_matches_oracle)
    seen = Counter()

    def invariants(m):
        return chi_domain(m), domain_orientable(m), mod2_degree(m)

    def observer(before, after, move):
        seen[move] += 1
        assert_matches_oracle(after)

    start = invariants(TransverseMap.from_json(tm.to_json()))
    assert invariants(tm) == start
    normal, _trace = normalize_observed(tm, observer)
    assert set(seen) == {"collapse_edge", "join_isolated_circle",
                         "boundary_surgery", "relocate_crosscap"}
    assert invariants(normal) == start


def test_join_and_insert_check_only_the_regions_they_change(monkeypatch):
    """Regions are frozen and shared: a copy and a move keep every region
    they do not change, so a join or an insert computes the per-region
    results of at most the three regions it replaces or adds, while the
    full validate_map still runs once per move."""
    misses = Counter()
    validations = Counter()

    class CountedChecks(transverse.RegionChecks):
        def __init__(self, facts, region, known):
            misses["total"] += 1
            super().__init__(facts, region, known)

    def counted_validate(tm):
        validations["total"] += 1
        return validate_map(tm)

    per_move = []

    def counting(name, move):
        def wrapper(*args, **kwargs):
            start = misses["total"], validations["total"]
            out = move(*args, **kwargs)
            per_move.append((name, misses["total"] - start[0],
                             validations["total"] - start[1]))
            return out
        return wrapper

    base = builtin_triangulation("klein_8")
    tm = map_from_cover(random_cover(base, 6, [3, 3], seed=0))
    tm = add_pinch(tm, 0, SurfaceKind(False, crosscaps=2))
    monkeypatch.setattr(transverse, "RegionChecks", CountedChecks)
    monkeypatch.setattr(moves, "validate_map", counted_validate)
    for name in ("join_isolated_circle", "insert_trivial_circle"):
        monkeypatch.setattr(moves, name, counting(name, getattr(moves, name)))
    normalize(scrambled(tm, 64, seed=0))
    counts = Counter(name for name, _m, _v in per_move)
    assert counts["insert_trivial_circle"] == 64 and counts["join_isolated_circle"] >= 64
    assert all(v == 1 for _name, _m, v in per_move)
    assert max(m for _name, m, _v in per_move) <= 3


def test_join_and_insert_checks_do_not_grow_with_the_map(monkeypatch):
    """A join's or an insert's check derives its tiling from that of the
    move's input, and keeps its ribbon facts, whose resolved ties it
    shares: the ties it resolves and the RegionChecks it makes count what
    the move changes, after 16 scramble steps as after 64."""
    made = Counter()
    ties = transverse._ties

    def counted_ties(*args):
        made["ties"] += 1
        return ties(*args)

    class CountedChecks(transverse.RegionChecks):
        def __init__(self, facts, region, known):
            made["checks"] += 1
            super().__init__(facts, region, known)

    per_move = []

    def counting(name, move):
        def wrapper(*args, **kwargs):
            start = made.copy()
            out = move(*args, **kwargs)
            per_move.append((name, made["ties"] - start["ties"],
                             made["checks"] - start["checks"]))
            return out
        return wrapper

    base = builtin_triangulation("klein_8")
    tm = map_from_cover(random_cover(base, 6, [3, 3], seed=0))
    tm = add_pinch(tm, 0, SurfaceKind(False, crosscaps=2))
    monkeypatch.setattr(transverse, "_ties", counted_ties)
    monkeypatch.setattr(transverse, "RegionChecks", CountedChecks)
    for name in ("join_isolated_circle", "insert_trivial_circle"):
        monkeypatch.setattr(moves, name, counting(name, getattr(moves, name)))
    for steps in (16, 64):
        per_move.clear()
        normalize(scrambled(tm, steps, seed=0))
        inserts = [t for name, t, _c in per_move if name == "insert_trivial_circle"]
        joins = [t for name, t, _c in per_move if name == "join_isolated_circle"]
        assert len(inserts) == steps and len(joins) >= steps
        assert max(t for _name, t, _c in per_move) <= 3
        assert max(c for _name, _t, c in per_move) <= 3


# --------------------------------------------------------------------------
# Derived ribbon facts: a move that rewires darts gets its result's facts
# derived from its input's, and they must be the facts built fresh

def test_classify_circuit_reads_the_class_its_region_checks_carry():
    """classify_circuit reads a circuit's class from the RegionChecks of
    its region, which derived facts carry over for unchanged regions; at
    every state of the slice and of the klein_8 scramble, and of their
    normalizations, it is the class RibbonFacts built fresh computes."""
    seen = Counter()

    def check(tm):
        facts, fresh = tm.ribbon_facts(), transverse.RibbonFacts(tm)
        for region in tm.regions:
            kept = facts._regions.get(region)
            if facts.origin is not None and kept is not None \
                    and kept._classes is not None:
                seen["carried"] += 1
            for c in region.circuits:
                if isinstance(c, RibbonCircuit):
                    assert classify_circuit(tm, region, c) == \
                        fresh.circuit_class(region.label, c.seq)
                    seen["circuits"] += 1

    def observer(before, after, move):
        check(after)

    maps = [_slice_map(*spec, check=check) for spec in SLICE]
    maps.append(_klein_scramble(check=check))
    for tm in maps:
        normalize_observed(tm, observer)
    assert seen["carried"] >= 100 and seen["circuits"] >= 1000


def _tube_maps():
    """The two-sheet tube maps of the orientable bases whose tube joins
    circuits of opposite directions: each normalizes by a surgery and the
    collapses it enables."""
    return [tube_double(builtin_triangulation(name), 0, same_direction=False)
            for name in ("sphere_tetra", "torus_7", "genus2")]


# two scrambles at d = 6 on the bases the slice covers at d = 2 only
LARGE = (("rp2_6", 6, [3, 3, 2, 2], SurfaceKind(False, crosscaps=2), 0),
         ("genus2", 6, [2, 2], SurfaceKind(False, crosscaps=2), 0))


def test_derived_facts_of_every_collapse_and_surgery_match_fresh_facts(monkeypatch):
    """Each collapse and surgery makes only the table edits derived facts
    carry the parent's over for (RibbonFacts.derive: whole vertices
    deleted, bands rewired), so every result's facts carry (`origin` is
    set), and they match fresh facts and the oracle."""
    carried = Counter()
    carry = transverse.RibbonFacts._carry

    def counting(facts, *args):
        carried["derived"] += 1
        return carry(facts, *args)

    monkeypatch.setattr(transverse.RibbonFacts, "_carry", counting)
    seen = Counter()
    changed = Counter()

    def observer(before, after, move):
        if move in ("collapse_edge", "boundary_surgery"):
            seen[move] += 1
            assert after.ribbon_facts().origin is not None, move
            assert_facts_match_fresh(after)
            assert_matches_oracle(after)
            # (components, consistent) of the graph: where either changes,
            # the chart flips of whole components change
            old, new = (m.ribbon_facts().vertex_charts[1:] for m in (before, after))
            changed["components"] += old[0] != new[0]
            changed["twistedness"] += old[1] != new[1]

    maps = ([_slice_map(*spec) for spec in SLICE + LARGE] + [_klein_scramble()]
            + _tube_maps())
    for tm in maps:
        normalize_observed(tm, observer)
    assert seen["collapse_edge"] >= 60 and seen["boundary_surgery"] >= 8
    assert changed["components"] >= 10 and changed["twistedness"] >= 5
    # each result's facts were derived, none built afresh
    assert carried["derived"] >= sum(seen.values())


def test_moves_that_keep_a_lift_s_tables_keep_its_pulled_back_facts():
    """Inserts, joins and crosscap relocations leave the dart tables
    alone, so their results keep the lift's facts, pulled back from the
    one-sheeted lift, and the disks they make take RegionChecks from its
    templates; at every such state of the slice's scrambles and
    normalizations, the facts and every RegionChecks are the fresh ones."""
    seen = Counter()

    def check(tm):
        facts = tm.ribbon_facts()
        if facts._lift is not None:
            seen["states"] += 1
            assert_facts_match_fresh(tm)

    def observer(before, after, move):
        check(after)

    for spec in SLICE:
        normalize_observed(_slice_map(*spec, check=check), observer)
    assert seen["states"] >= 100, seen


# the move that rewires darts -> its finder, whose arguments redo it
REWIRING = {"collapse_edge": moves._find_collapse,
            "boundary_surgery": moves._find_surgery}


def test_collapse_checks_only_the_regions_it_replaces(monkeypatch):
    """A collapse traces again only the circuits through the darts it
    rewires, and a collapse or a surgery builds RegionChecks only for the
    regions it replaces, also where it splits a graph component or makes
    one twisted or untwisted: a region's ties name darts of its own
    circuits, not graph components or their chart flips."""
    built = Counter()

    class CountedChecks(transverse.RegionChecks):
        def __init__(self, facts, region, known):
            built["checks"] += 1
            super().__init__(facts, region, known)

    trace = transverse.RibbonFacts._trace_from

    def counted_trace(facts, token):
        built["traces"] += 1
        return trace(facts, token)

    monkeypatch.setattr(transverse, "RegionChecks", CountedChecks)
    monkeypatch.setattr(transverse.RibbonFacts, "_trace_from", counted_trace)
    local = Counter()
    unobserved = {move: getattr(moves, move) for move in REWIRING}

    def observer(before, after, move):
        if move not in REWIRING:
            return
        args = REWIRING[move](before)
        start = built.copy()
        redo = unobserved[move](before, *args)
        traces = built["traces"] - start["traces"]
        checks = built["checks"] - start["checks"]
        if move == "collapse_edge":
            assert traces == len(set(redo.trace_circuits())
                                 - set(before.trace_circuits()))
        local[move] += 1
        assert checks == sum(1 for r in redo.regions
                             if not any(r is s for s in before.regions)), move

    for tm in [_slice_map(*spec) for spec in SLICE] + [_klein_scramble()]:
        normalize_observed(tm, observer)
    assert local["collapse_edge"] >= 30 and local["boundary_surgery"] >= 5


def test_derived_side_coherence_matches_fresh_facts_for_any_labels():
    """Derived facts carry the circuits flanking the edges away from the
    rewired darts.  With arbitrary labels, also where a new circuit has
    the key and the label of a circuit it replaced, their side coherence
    answers as fresh facts do."""
    rng = random.Random(3)
    compared = Counter()

    def observer(before, after, move):
        if move not in ("collapse_edge", "boundary_surgery"):
            return
        parent = before.ribbon_facts()
        labels = {key: rng.randrange(4) for key in parent.circuit_by_key}
        parent.flank_problems(labels)
        derived = transverse.RibbonFacts.derive(parent, after)
        again = {key: labels.get(key, rng.randrange(4)) for key in derived.circuit_by_key}
        fresh = transverse.RibbonFacts(after)
        assert derived.flank_problems(again) == fresh.flank_problems(again)
        compared[move] += 1

    for tm in [_slice_map(*spec) for spec in SLICE] + _tube_maps():
        normalize_observed(tm, observer)
    assert compared["collapse_edge"] >= 30 and compared["boundary_surgery"] >= 5


def test_flip_vertex_shares_the_regions_it_does_not_touch():
    tm = _slice_map(*SLICE[0])
    facts = tm.ribbon_facts()
    d = facts.vertex_reps[0]
    at_vertex = {(x, side) for x in facts.vertex_darts(d) for side in (0, 1)}
    flipped = flip_vertex(tm, d)
    touched = [not at_vertex.isdisjoint(t for c in r.circuits
                                        if isinstance(c, RibbonCircuit) for t in c.seq)
               for r in tm.regions]
    assert any(touched) and not all(touched)
    for region, again, hit in zip(tm.regions, flipped.regions, touched):
        assert (again is not region) if hit else (again is region)
    assert validate_map(flipped).ok
    assert_facts_match_fresh(flipped)


def test_a_table_value_derive_cannot_diff_gets_fresh_facts():
    """A copy of a checked map whose edge sign is a list, a table value
    that RibbonFacts.derive cannot hash to diff the tables, gets facts
    computed from its tables, which report the bad sign as the facts of
    a map built afresh from the same tables do."""
    tm = _slice_map(*SLICE[0])
    assert validate_map(tm).ok
    bad = tm.copy()
    sign, = bad.own("edge_sign")
    k = next(iter(sign))
    sign[k] = [sign[k]]
    facts = bad.ribbon_facts()
    assert facts is not tm.ribbon_facts() and facts.origin is None
    fresh = TransverseMap(bad.target, *(dict(getattr(bad, name))
                                        for name in transverse._TABLES),
                          bad.isolated, bad.regions)
    assert validate_map(bad).problems == validate_map(fresh).problems == [
        f"missing or bad sign for edge {k}"]


def _digest_genus2_scramble() -> TransverseMap:
    """The map of tests/digests.json's g4s.json: `generate composite --base
    genus2 --d 4 --branch 2,2 --pinch klein --seed 1`, then `generate
    scramble --steps 64 --seed 9`."""
    tm = map_from_cover(random_cover(builtin_triangulation("genus2"), 4, [2, 2],
                                     seed=1))
    return scrambled(add_pinch(tm, 0, SurfaceKind(False, crosscaps=2)), 64, seed=9)


def test_collapse_shares_the_regions_it_does_not_rebuild():
    """A collapse replaces only the regions with a stored circuit through
    a dart of the edge's two endpoints: every other region is the same
    object in the result, its circuits in the order they were.  The
    digests' genus2 scramble has a collapse beside a region whose
    circuits are not in key order."""
    kept = Counter()

    def observer(before, after, move):
        if move != "collapse_edge":
            return
        dead = before.pairing.keys() - after.pairing.keys()
        for region in before.regions:
            hit = not dead.isdisjoint(t[0] for c in region.circuits
                                      if isinstance(c, RibbonCircuit) for t in c.seq)
            if not hit:
                assert any(region is again for again in after.regions)
            kept[hit] += 1

    for tm in (_slice_map(*SLICE[0]), _digest_genus2_scramble()):
        normalize_observed(tm, observer)
    assert kept[True] and kept[False]


def test_normal_form_does_not_follow_the_stored_circuit_order():
    """A region a collapse does not rebuild keeps the circuit order it was
    loaded with, and the joins pick by that order.  The digests' genus2
    scramble loaded with every region's circuits reversed takes other
    steps to the same normal form."""
    tm = _digest_genus2_scramble()
    doc = tm.to_json()
    for region in doc["regions"]:
        region["circuits"].reverse()
    norm, trace = normalize(tm)
    norm_reversed, trace_reversed = normalize(TransverseMap.from_json(doc))
    assert trace_reversed != trace
    assert norm_reversed.to_json() == norm.to_json()


def _swap_rotation_entries(tm):
    """A copy of tm with two rotation entries swapped at a vertex of
    degree 3 or more."""
    tm = tm.copy()
    rotation, = tm.own("rotation")
    a = next(d for d in sorted(rotation) if len(rotation_orbit(rotation, d)) >= 3)
    b = rotation[a]
    rotation[a], rotation[b] = rotation[b], rotation[a]
    return tm


def _move_label(tm):
    """A copy of tm with the labels of two darts on two copies of one
    target edge, carrying its two ends, swapped: each copy's label moves
    to the other."""
    tm = tm.copy()
    copies = {}
    for k in tm.edge_keys():
        copies.setdefault(tm.label_edge(k), []).append(k)
    label, = tm.own("dart_label")
    k1, k2 = next(ks for ks in copies.values() if len(ks) >= 2)[:2]
    b = next(d for d in (k2, tm.pairing[k2]) if label[d] != label[k1])
    label[k1], label[b] = label[b], label[k1]
    return tm


@pytest.mark.parametrize("edit", [
    lambda tm: flip_vertex(tm, tm.ribbon_facts().vertex_reps[0]),
    _swap_rotation_entries, _move_label,
], ids=["flip_vertex", "rotation_swapped", "label_moved"])
def test_edits_no_move_makes_get_facts_from_the_tables(edit):
    """Derived facts carry the parent's over only after the table edits
    the moves make (whole vertices deleted, bands rewired).  Edits at
    darts that survive, a gauge flip alone, two rotation entries swapped
    and a label moved to another copy of its edge, give facts without a
    carry (origin None), computed from the tables as fresh facts are, and
    the inherited tiling derives no tiling from them: the check answers
    as the oracle does."""
    tm = _slice_map(*SLICE[0])
    assert validate_map(tm).ok
    work = edit(tm)
    facts = work.ribbon_facts()
    assert facts is not tm.ribbon_facts() and facts.origin is None
    assert_facts_match_fresh(work)
    assert tm._tiling.derived(work, facts) is None
    assert validate_map(work).problems == validate_map(
        TransverseMap.from_json(work.to_json())).problems
    assert_matches_oracle(work)
    assert_facts_match_fresh(work)


def test_in_place_edit_after_a_collapse_is_read_off_the_tables():
    """The facts of a map edited in place are derived from the tables: a
    sign flipped on an edge far from a collapse is found."""
    tm = tube_double(builtin_triangulation("torus_7"), 0, same_direction=False)
    while not collapsible_edges(tm):
        tm = moves.boundary_surgery(tm, *moves._find_surgery(tm))
    before_keys = set(tm.edge_keys())
    out = collapse_edge(tm, collapsible_edges(tm)[0])
    assert validate_map(out).ok
    rewired = {k for k in out.edge_keys() if k not in before_keys
               or out.pairing[k] != tm.pairing[k]}
    vertex_of = out.ribbon_facts().vertex_of
    near = {vertex_of[d] for k in rewired for d in (k, out.pairing[k])}
    far = next(k for k in out.edge_keys()
               if vertex_of[k] not in near
               and vertex_of[out.pairing[k]] not in near)
    sign, = out.own("edge_sign")
    sign[far] = -sign[far]
    problems = validate_map(out).problems
    assert any(f"edge {far} has sign" in p for p in problems)
    assert problems == validate_map(TransverseMap.from_json(out.to_json())).problems


# --------------------------------------------------------------------------
# In-place tampering with a map whose checks already ran


@pytest.fixture
def checked():
    """A scrambled map fresh out of a move's self-check, plus a copy that
    inherited its ribbon facts and was checked again."""
    tm = _slice_map(*SLICE[0])
    assert validate_map(tm).ok
    work = tm.copy()
    assert validate_map(work).ok
    return tm, work


def test_tampered_edge_sign_is_reported(checked):
    tm, work = checked
    k = work.edge_keys()[0]
    sign, = work.own("edge_sign")
    sign[k] = -sign[k]
    assert any("band geometry" in p for p in validate_map(work).problems)
    assert validate_map(tm).ok


def test_tampered_rotation_entry_is_reported(checked):
    tm, work = checked
    facts = work.ribbon_facts()
    a = next(d for d in work.pairing if len(facts.vertex_darts(d)) >= 3)
    rotation, = work.own("rotation")
    b = rotation[a]
    rotation[a], rotation[b] = rotation[b], rotation[a]
    assert not validate_map(work).ok
    assert validate_map(tm).ok


def _add_summand(tm, ri):
    """Region ri gains a handle or a crosscap (regions are frozen: the
    edit replaces it)."""
    region = tm.regions[ri]
    kind = region.kind
    kind = (SurfaceKind(True, kind.handles + 1, 0, kind.boundary)
            if kind.orientable else
            SurfaceKind(False, 0, kind.crosscaps + 1, kind.boundary))
    tm.replace(regions={ri: Region(region.label, kind, region.circuits)})


def _replace_circuit(tm, ri, pos, circuit):
    region = tm.regions[ri]
    pos %= len(region.circuits)
    circuits = region.circuits[:pos] + (circuit,) + region.circuits[pos + 1:]
    tm.replace(regions={ri: Region(region.label, region.kind, circuits)})


def test_tampered_region_kind_is_reported(checked):
    tm, work = checked
    _add_summand(work, 0)
    assert validate_map(work).ok        # kinds are free data for the validator
    with pytest.raises(InternalInconsistency, match="Euler characteristic drifted") as ex:
        _post_move_check(tm, work, edge_delta=(0, 0), context="tamper")
    assert ex.value.context == "tamper"
    assert ex.value.problems == ["Euler characteristic drifted"]
    # tampered after its own check, a map's invariants from that check are
    # stale; reusing them would report a drift in the next move
    _add_summand(tm, 0)
    chi = chi_domain(TransverseMap.from_json(tm.to_json()))
    edge = tm.target.triangle_edges(tm.regions[0].label)[0]
    assert chi_domain(insert_trivial_circle(tm, 0, edge)) == chi


def test_tampered_iso_side_is_reported(checked):
    tm, work = checked
    ri, pos, side = next((ri, pos, c) for ri, reg in enumerate(work.regions)
                         for pos, c in enumerate(reg.circuits)
                         if isinstance(c, IsoSide) and c.side == 1)
    _replace_circuit(work, ri, pos, IsoSide(side.circle, 0, side.direction))
    problems = validate_map(work).problems
    assert any("used twice" in p for p in problems)
    assert any("belongs to no region" in p for p in problems)
    assert validate_map(tm).ok


def test_tampered_ribbon_circuit_is_reported(checked):
    tm, work = checked
    ri, pos = next((ri, pos) for ri, reg in enumerate(work.regions)
                   for pos, c in enumerate(reg.circuits)
                   if isinstance(c, RibbonCircuit))
    c = work.regions[ri].circuits[pos]
    _replace_circuit(work, ri, pos, RibbonCircuit(c.seq[2:] + c.seq[:1]))
    problems = validate_map(work).problems
    assert any("not an alternating boundary walk" in p for p in problems)
    assert validate_map(tm).ok


@pytest.mark.parametrize("shift", (1, 2, -1))
def test_stored_circuit_that_starts_elsewhere_is_read_as_the_oracle_reads_it(
        checked, shift):
    """A stored circuit started one token later (with a corner step) is
    no boundary walk; started two tokens later it walks its circuit."""
    tm, work = checked
    ri, pos = next((ri, pos) for ri, reg in enumerate(work.regions)
                   for pos, c in enumerate(reg.circuits)
                   if isinstance(c, RibbonCircuit))
    seq = work.regions[ri].circuits[pos].seq
    _replace_circuit(work, ri, pos, RibbonCircuit(seq[shift:] + seq[:shift]))
    problems = validate_map(work).problems
    assert problems == validate_map(TransverseMap.from_json(work.to_json())).problems
    assert bool(problems) == (shift % 2 == 1)
    assert validate_map(tm).ok


# --------------------------------------------------------------------------
# The domain solve (connectivity, orientation) is memoized per map state:
# a map changed in place after its solve must get the oracle's answers


def _domain_answers(tm: TransverseMap):
    """chi_domain (or the Disconnected text), domain_orientable and the
    signed degree where it is defined; for a map that fails validate_map,
    the context and problems of the error the answers raise."""
    try:
        chi = chi_domain(tm)
    except Disconnected as ex:
        chi = str(ex)
    except InternalInconsistency as ex:
        return ex.context, ex.problems
    orientable = domain_orientable(tm)
    signed = (signed_degree(tm)
              if orientable and tm.target.orientability() else None)
    return chi, orientable, signed


def _handle_map() -> TransverseMap:
    """The sphere's identity map with two isolated circles between the same
    two regions (a handle: region 0 with two more holes, and an annulus
    across the circles), so the two circles' directions are tied."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    edge = tm.target.triangle_edges(tm.regions[0].label)[0]
    tm = insert_trivial_circle(tm, 0, edge)
    holed, annulus = tm.regions[0], tm.regions[-1]
    cid = add_circle(tm, edge)
    circuits = holed.circuits + (IsoSide(cid, 0, 1),)
    tm.replace(regions={
        0: Region(holed.label, SurfaceKind(True, 0, 0, len(circuits)), circuits),
        len(tm.regions) - 1: Region(annulus.label, SurfaceKind(True, 0, 0, 2),
                                    annulus.circuits + (IsoSide(cid, 1, -1),))})
    assert validate_map(tm).ok
    return tm


def _flip_iso_direction(tm, pos=-1):
    """The annulus side of the second circle (or the side at `pos`) turns
    around: a Klein handle, or an untwisted one again."""
    side = tm.regions[-1].circuits[pos]
    _replace_circuit(tm, -1, pos, IsoSide(side.circle, side.side, -side.direction))


def _reverse_ribbon_circuit(tm):
    """One boundary of the annulus joining the two sheets reverses: the
    signed degree changes between 2 and 0."""
    ri = next(ri for ri, r in enumerate(tm.regions) if len(r.circuits) == 2)
    _replace_circuit(tm, ri, 1, tm.regions[ri].circuits[1].reversed())


def _drop_circuit(tm):
    """The last scramble step's disk loses its only circuit: it is cut
    off from the rest of the domain."""
    region = tm.regions[-1]
    tm.replace(regions={len(tm.regions) - 1: Region(region.label, region.kind,
                                                    region.circuits[:-1])})


def _add_isolated_circle(tm):
    """A circle no region is bounded by: a second component."""
    add_circle(tm, next(iter(tm.isolated.values())).edge)


IN_PLACE_EDITS = {
    "iso_direction": (_handle_map, _flip_iso_direction),
    "ribbon_reversed": (lambda: tube_double(builtin_triangulation("sphere_tetra")),
                        _reverse_ribbon_circuit),
    "circuit_dropped": (lambda: _slice_map(*SLICE[0]), _drop_circuit),
    "isolated_added": (lambda: _slice_map(*SLICE[0]), _add_isolated_circle),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE_EDITS))
def test_domain_solve_follows_an_in_place_edit(name):
    build, edit = IN_PLACE_EDITS[name]
    tm = build()
    chi_domain(tm)
    before = _domain_answers(tm)
    edit(tm)
    after = _domain_answers(tm)
    assert after == _domain_answers(TransverseMap.from_json(tm.to_json()))
    assert after != before


# --------------------------------------------------------------------------
# In-place tampering with a copy that inherited a checked map's tiling: its
# check derives from that tiling, and must find what the oracle finds


def _swap_iso_side(tm):
    """A region's side of a circle becomes the circle's other side."""
    ri, pos, side = next((ri, pos, c) for ri, reg in enumerate(tm.regions)
                         for pos, c in enumerate(reg.circuits)
                         if isinstance(c, IsoSide) and c.side == 1)
    _replace_circuit(tm, ri, pos, IsoSide(side.circle, 0, side.direction))


def _reuse_circle_id(tm):
    """The circle of highest id is removed and one over another edge added:
    add_circle gives it the removed circle's id, which regions still name."""
    cid = max(tm.isolated)
    edge = tm.isolated[cid].edge
    tm.replace(circles={cid: None})
    assert add_circle(tm, (edge + 1) % len(tm.target.edges)) == cid


def _relabel_region(tm):
    """A region bounded by ribbon circuits alone gets the label of the
    other triangle on the same three edges: its corners still fit, and
    only the side coherence of its edges can tell."""
    ri, region = next((ri, r) for ri, r in enumerate(tm.regions)
                      if not any(isinstance(c, IsoSide) for c in r.circuits))
    tm.replace(regions={ri: Region(1 - region.label, region.kind, region.circuits)})


def _relabel_circle_disk(tm):
    """A disk bounded by one circle side alone gets the label of the other
    triangle: only the side coherence of its circle can tell."""
    ri, region = next((ri, r) for ri, r in enumerate(tm.regions)
                      if len(r.circuits) == 1 and isinstance(r.circuits[0], IsoSide))
    tm.replace(regions={ri: Region(1 - region.label, region.kind, region.circuits)})


def _relabel_region_off_its_corners(tm):
    """A region with a ribbon circuit and a circle side gets the label of
    a triangle on other edges: its circuits' corner problems and classes
    must be read under the new label, not taken from the region it
    replaces."""
    ri, region = next((ri, r) for ri, r in enumerate(tm.regions)
                      if {type(c) for c in r.circuits} == {RibbonCircuit, IsoSide})
    edges = tm.target.triangle_edges
    label = next(t for t in range(len(tm.target.triangles))
                 if set(edges(t)) != set(edges(region.label)))
    tm.replace(regions={ri: Region(label, region.kind, region.circuits)})


def _store_a_circuit_twice(tm):
    """A region is replaced by a new region object with the label, kind
    and circuits of another: both store those circuits, and the circuits
    of the region replaced belong to none."""
    ri, region = next((ri, r) for ri, r in enumerate(tm.regions)
                      if any(isinstance(c, RibbonCircuit) for c in r.circuits))
    other = (ri + 1) % len(tm.regions)
    tm.replace(regions={other: Region(region.label, region.kind, region.circuits)})


def _move_a_circle_off_the_edges(tm):
    """A circle is set over an edge the target does not have."""
    cid = next(iter(tm.isolated))
    tm.replace(circles={cid: IsolatedCircle(len(tm.target.edges))})


def _scrambled_slice():
    return _slice_map(*SLICE[0])


INHERITED_EDITS = {
    "iso_side_swapped": (_scrambled_slice, _swap_iso_side),
    "circuit_dropped": (_scrambled_slice, _drop_circuit),
    "isolated_added": (_scrambled_slice, _add_isolated_circle),
    "circle_id_reused": (_scrambled_slice, _reuse_circle_id),
    "circuit_stored_twice": (_scrambled_slice, _store_a_circuit_twice),
    "circle_off_the_edges": (_scrambled_slice, _move_a_circle_off_the_edges),
    "region_off_its_corners": (_scrambled_slice, _relabel_region_off_its_corners),
    "region_relabeled": (lambda: scrambled(identity_map(two_triangle_sphere()), 4,
                                           seed=1),
                         _relabel_region),
    "circle_disk_relabeled": (lambda: scrambled(identity_map(two_triangle_sphere()),
                                                4, seed=1),
                              _relabel_circle_disk),
}
# the problem that leads the oracle's texts, where no other test reads it
FIRST_PROBLEMS = {
    "circuit_stored_twice": "circuit stored twice",
    "circle_off_the_edges": "isolated circle labeled by unknown edge",
}


@pytest.mark.parametrize("name", sorted(INHERITED_EDITS))
def test_tampered_copy_of_a_checked_map_matches_the_oracle(name):
    build, edit = INHERITED_EDITS[name]
    tm = build()
    assert validate_map(tm).ok
    before = _domain_answers(tm)
    work = tm.copy()
    assert work.tiling() is tm.tiling() is not None
    edit(work)
    fresh = TransverseMap.from_json(work.to_json())
    problems = validate_map(work).problems
    assert problems and problems == validate_map(fresh).problems
    assert problems[0].startswith(FIRST_PROBLEMS.get(name, ""))
    assert _domain_answers(work) == _domain_answers(fresh)
    assert validate_map(tm).ok and _domain_answers(tm) == before


@pytest.mark.parametrize("name", sorted(IN_PLACE_EDITS))
def test_domain_solve_of_a_tampered_copy_follows_the_edit(name):
    """The same edits on a copy that inherited the checked map's tiling:
    where the copy still validates, its tiling is derived from the
    original's, and its solve is made from the sums that tiling carries."""
    build, edit = IN_PLACE_EDITS[name]
    tm = build()
    assert validate_map(tm).ok
    before = _domain_answers(tm)
    work = tm.copy()
    edit(work)
    fresh = TransverseMap.from_json(work.to_json())
    assert validate_map(work).problems == validate_map(fresh).problems
    after = _domain_answers(work)
    assert after == _domain_answers(fresh)
    assert after != before


@pytest.mark.parametrize("name", ["circuit_dropped", "isolated_added"])
def test_domain_answers_of_an_invalid_map_are_refused(name, tmp_path, capsys):
    """A map that fails validate_map has no checked tiling and so no
    domain answer: each raises as a move given the map does, with the
    first four problems, and the CLI refuses its document on entry."""
    build, edit = IN_PLACE_EDITS[name]
    tm = build()
    edit(tm)
    problems = validate_map(tm).problems
    assert problems
    for answer in (chi_domain, domain_orientable, domain_solve, signed_degree):
        with pytest.raises(InternalInconsistency) as info:
            answer(tm)
        assert info.value.context == "domain_solve"
        assert info.value.problems == problems[:4]
    path = tmp_path / "map.json"
    path.write_text(tm.dumps())
    assert cli.main(["analyze", "degree", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "input" and out["problems"] == problems


def _nested_circles() -> TransverseMap:
    """The sphere's identity map with a circle C in region 0 and a circle
    in the disk C bounds: the disk is an annulus between the two."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    edge = tm.target.triangle_edges(tm.regions[0].label)[0]
    tm = insert_trivial_circle(tm, 0, edge)
    disk = len(tm.regions) - 1
    return insert_trivial_circle(tm, disk, tm.target.triangle_edges(
        tm.regions[disk].label)[0])


def _without_circle(tm, cid):
    """The circle is removed and each region on it loses that side: a
    tiling still, with other invariants."""
    changes = {}
    for ri, region in enumerate(tm.regions):
        circuits = tuple(c for c in region.circuits
                         if not (isinstance(c, IsoSide) and c.circle == cid))
        if circuits != region.circuits:
            kind = region.kind
            changes[ri] = Region(region.label, SurfaceKind(
                kind.orientable, kind.handles, kind.crosscaps, len(circuits)),
                circuits)
    tm.replace(regions=changes, circles={cid: None})


def test_derived_solves_follow_valid_edits_that_split_join_and_untwist():
    """Copies edited in place that still validate, each checked after the
    one it copies: their tilings are derived, and the solves made from
    them must be the oracle's where a deleted tie splits the domain, where
    a whole component goes and where a contradicting tie goes."""
    def step(tm, edit):
        work = tm.copy()
        edit(work)
        assert validate_map(work).ok
        answers = _domain_answers(work)
        assert answers == _domain_answers(TransverseMap.from_json(work.to_json()))
        return work, answers

    tm = _nested_circles()
    outer, inner = tm.isolated
    whole = _domain_answers(tm)
    split, answers = step(tm, lambda m: _without_circle(m, outer))
    assert answers[0] == "domain has 2 components"
    _joined, answers = step(split, lambda m: (
        _without_circle(m, inner),
        m.replace(regions={len(m.regions) - 1: None, len(m.regions) - 2: None})))
    assert answers[0] == whole[0] == 2

    # one of the annulus's two circle ties contradicts the other in the
    # twisted solve, and turning either side back untwists the handle
    tm = _handle_map()
    twisted, answers = step(tm, _flip_iso_direction)
    assert answers[1] is False
    for pos in (0, 1):
        _untwisted, answers = step(twisted, lambda m: _flip_iso_direction(m, pos))
        assert answers == _domain_answers(tm)


# --------------------------------------------------------------------------
# Joins of a large map, and the first join after a load


def _genus2_scramble(check=None) -> TransverseMap:
    base = builtin_triangulation("genus2")
    tm = map_from_cover(random_cover(base, 6, [2, 2], seed=2))
    tm = add_pinch(tm, 0, SurfaceKind(True, handles=1))
    return scrambled(tm, 64, seed=2, check=check)


def test_every_join_of_a_large_map_matches_the_oracle():
    """All moves of this normalization are joins, many of whose far disks
    hold circles of their own, and each result matches the oracle, chart
    flips included (the domain is orientable)."""
    counts = Counter()

    def observer(before, after, move):
        counts[move] += 1
        assert domain_solve(after).orientable
        assert_matches_oracle(after)

    normalize_observed(_genus2_scramble(), observer)
    assert counts == {"join_isolated_circle": 64}


def test_first_join_after_a_load_solves_its_input_and_its_result(monkeypatch):
    """A map loaded and checked as the CLI does (_valid_map) has a tiling
    and its domain solve: the entry measures the domain (chi_domain), so
    the first join, which measures its input before it checks the result,
    solves the domain once, for the result, and derives that solve from
    its input's (the join keeps the facts)."""
    tm = cli._valid_map(TransverseMap.from_json(_genus2_scramble().to_json()))
    calls = Counter()
    solve, derive = transverse._solve, transverse._derive_solve

    def counted_solve(*args):
        calls["whole"] += 1
        return solve(*args)

    def counted_derive(*args):
        out = derive(*args)
        calls["derived" if out is not None else "failed"] += 1
        return out

    monkeypatch.setattr(transverse, "_solve", counted_solve)
    monkeypatch.setattr(transverse, "_derive_solve", counted_derive)
    out = moves.join_isolated_circle(tm, *moves._find_join(tm))
    assert calls == {"derived": 1}
    monkeypatch.undo()
    assert_matches_oracle(out)


def test_invalid_result_is_reported_before_any_drift(checked):
    """The input is measured first, but an invalid result still fails with
    the validator's problems, not with a drift."""
    tm, work = checked
    k = work.edge_keys()[0]
    sign, = work.own("edge_sign")
    sign[k] = -sign[k]
    _add_summand(work, 0)
    problems = validate_map(work).problems[:4]
    with pytest.raises(InternalInconsistency) as ex:
        _post_move_check(tm, work, edge_delta=(0, 0), context="tamper")
    assert str(ex.value).startswith(f"tamper: invalid result: {problems}")
    assert ex.value.problems == problems


def _split_region(tm, ri, first, second):
    """Region ri replaced by two, in its place: the regions after it move
    up one place."""
    moved = (first, second) + tm.regions[ri + 1:]
    tm.replace(regions=dict(enumerate(moved[:-1], ri)), append=moved[-1:])


def test_a_cut_piece_that_reaches_the_graph_is_solved_with_the_whole_domain():
    """The tube between the two sheets of a degree-2 map over sphere_tetra
    is cut into a disk on each sheet: the copy's tiling is derived, its
    domain is solved from the carried sums, and it is two spheres."""
    tm = tube_double(builtin_triangulation("sphere_tetra"))
    whole = _domain_answers(tm)
    work = tm.copy()
    ri = next(ri for ri, r in enumerate(work.regions) if len(r.circuits) == 2)
    tube = work.regions[ri]
    _split_region(work, ri, *(Region(tube.label, SurfaceKind(True, 0, 0, 1), (c,))
                              for c in tube.circuits))
    assert validate_map(work).ok and work.tiling() is not None
    answers = _domain_answers(work)
    assert answers == _domain_answers(TransverseMap.from_json(work.to_json()))
    assert answers[0] == "domain has 2 components" != whole[0]


def _circle_sphere() -> TransverseMap:
    """The sphere's identity map and, apart from it, a sphere of two
    circles X and Y: a disk on X, an annulus between X and Y, a disk on
    Y.  Valid, with a domain of two components."""
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    t1 = tm.regions[0].label
    edge = tm.target.triangle_edges(t1)[0]
    t2 = next(t for t, _ in tm.target.edge_sides(edge) if t != t1)
    x, y = add_circle(tm, edge), add_circle(tm, edge)
    disk, annulus = SurfaceKind(True, 0, 0, 1), SurfaceKind(True, 0, 0, 2)
    tm.replace(append=(Region(t1, disk, (IsoSide(x, 0, 1),)),
                       Region(t2, annulus, (IsoSide(x, 1, -1), IsoSide(y, 0, 1))),
                       Region(t1, disk, (IsoSide(y, 1, -1),))))
    assert validate_map(tm).ok
    return tm


def test_a_class_cut_into_pieces_of_circles_alone_is_left_dead():
    """The annulus of the circle sphere is cut into two disks: the class
    of the circles falls into two pieces, neither meeting the graph, and
    nothing of the class it was is left; the domain then has three
    components."""
    tm = _circle_sphere()
    assert _domain_answers(tm)[0] == "domain has 2 components"
    work = tm.copy()
    annulus = work.regions[-2]
    _split_region(work, len(work.regions) - 2,
                  *(Region(annulus.label, SurfaceKind(True, 0, 0, 1), (c,))
                    for c in annulus.circuits))
    assert validate_map(work).ok and work.tiling() is not None
    answers = _domain_answers(work)
    assert answers == _domain_answers(TransverseMap.from_json(work.to_json()))
    assert answers[0] == "domain has 3 components"


# --------------------------------------------------------------------------
# The join finder reads the regions bounded by circles off the tiling


def _found_join(tm: TransverseMap):
    """What _find_join and the reference scan give: the triple, None, or
    the Stuck report."""
    out = []
    for find in (moves._find_join, find_join_by_scan):
        try:
            out.append(find(tm))
        except Stuck as ex:
            out.append(("stuck", ex.report))
    assert out[0] == out[1]
    return out[0]


def test_join_finder_reads_the_tiling_and_agrees_with_the_scan():
    found = Counter()

    def observer(before, after, move):
        for tm in (before, after):
            assert tm.tiling() is not None
            out = _found_join(tm)
            found["none" if out is None else out[0] if out[0] == "stuck" else "join"] += 1

    for spec in SLICE:
        normalize_observed(_slice_map(*spec), observer)
    assert found["join"] >= 100 and found["none"] >= 30 and found["stuck"] >= 10
    # without a current tiling, the finder checks the map first
    work = _slice_map(*SLICE[0]).copy()
    work.replace(regions=dict(enumerate(work.regions[::-1])))
    assert work.tiling() is None and _found_join(work) is not None


def test_join_finder_stuck_exit_is_unchanged():
    """A circle in a region of the fold, whose circuits are all irregular:
    no join target, with or without a current tiling."""
    fold = builtin_example("fold_degree_zero")
    tm = insert_trivial_circle(fold, 0, fold.target.triangle_edges(
        fold.regions[0].label)[0])
    work = tm.copy()
    work.replace(regions=dict(enumerate(work.regions[::-1])))
    assert tm.tiling() is not None and work.tiling() is None
    for m in (tm, work):
        stuck, report = _found_join(m)
        assert stuck == "stuck"
        assert report["reason"] == "isolated circles but no join target"


# --------------------------------------------------------------------------
# A move reads the regions it touches off its input's checked tiling


def _entry_cases():
    """(move name, run, map with a tiling): run(tm) is the move's result
    in comparable form.  The collapse is of a twisted edge, so its gauge
    flip reads the tiling too."""
    opp = tube_double(builtin_triangulation("sphere_tetra"), 0, same_direction=False)
    surgery = moves._find_surgery(opp)
    cut = moves.boundary_surgery(opp, *surgery)
    edge = next(k for k in collapsible_edges(cut) if cut.edge_sign[k] < 0)
    vertex = opp.ribbon_facts().vertex_reps[0]

    def normalized(tm):
        norm, trace = normalize(tm)
        return norm.dumps(), trace

    return (("collapse_edge", lambda tm: collapse_edge(tm, edge).dumps(), cut),
            ("boundary_surgery",
             lambda tm: moves.boundary_surgery(tm, *surgery).dumps(), opp),
            ("flip_vertex", lambda tm: flip_vertex(tm, vertex).dumps(), opp),
            ("normalize", normalized, opp))


def _tampered(tm: TransverseMap) -> TransverseMap:
    """tm read back from its document, its last region's kind claiming
    one boundary circuit more than the region has."""
    bad = TransverseMap.from_json(tm.to_json())
    region = bad.regions[-1]
    kind = region.kind
    bad.replace(regions={len(bad.regions) - 1: Region(
        region.label, SurfaceKind(kind.orientable, kind.handles, kind.crosscaps,
                                  kind.boundary + 1),
        region.circuits)})
    return bad


def test_a_move_checks_an_input_without_a_tiling_first():
    """A map read back from its document has no tiling: the move checks it
    and gives what it gives on the checked map, and on an invalid one it
    raises with its own name as the context."""
    for name, run, tm in _entry_cases():
        fresh = TransverseMap.from_json(tm.to_json())
        assert tm.tiling() is not None and fresh.tiling() is None
        assert run(fresh) == run(tm), name
        assert fresh.tiling() is not None, name
        with pytest.raises(InternalInconsistency) as ex:
            run(_tampered(tm))
        assert ex.value.context == name
        assert ex.value.problems == [
            f"region {len(tm.regions) - 1} kind boundary count disagrees "
            "with its circuits"]


def test_a_region_without_circuits_listed_twice_keeps_a_tiling():
    """A check passes a map that lists a region without circuits twice
    (the domain then has a component per listing) and leaves it a tiling
    whose answers are the oracle's, also for a copy that lists it once."""
    tm = identity_map(builtin_triangulation("sphere_tetra")).copy()
    closed = Region(tm.regions[0].label, SurfaceKind(True))
    tm.replace(append=(closed, closed))
    assert validate_map(tm).ok and tm.tiling() is not None
    assert_matches_oracle(tm)
    assert domain_solve(tm).components == 3
    once = tm.copy()
    once.replace(regions={len(once.regions) - 1: None})
    assert validate_map(once).ok and once.tiling() is not None
    assert_matches_oracle(once)
    assert domain_solve(once).components == 2


def test_every_join_of_the_klein_normalization_matches_the_oracle():
    """Each join of the klein_8 d = 6 normalization, some of which cut a
    circle off the graph on one side, matches the oracle."""
    counts = Counter()

    def observer(before, after, move):
        counts[move] += 1
        if move == "join_isolated_circle":
            assert_matches_oracle(after)

    normalize_observed(_klein_scramble(), observer)
    assert counts["join_isolated_circle"] >= 40


def test_a_normalization_that_keeps_the_tables_keeps_the_checks_of_its_regions_only():
    """Inserts and joins keep the dart tables, so a scramble and its
    normalization share one facts object; it forgets the RegionChecks of
    the regions each move replaces, and holds those of the current
    regions only (it held 153 for the 90 regions of this scramble, and
    281 for the 26 of its normal form)."""
    tm = scrambled(identity_map(builtin_triangulation("genus2")), 64, seed=0)
    facts = tm.ribbon_facts()
    assert len(tm.regions) == 90
    assert set(facts._regions) == set(tm.regions)
    normal, _trace = normalize(tm)
    assert normal.ribbon_facts() is facts and len(normal.regions) == 26
    assert set(facts._regions) == set(normal.regions)
    assert_matches_oracle(normal)


def test_a_normalization_that_keeps_the_tables_keeps_the_ties_of_its_regions_only():
    """The facts that a scramble and its normalization share also forget
    the resolved ties of the regions each move replaces: after every
    solve they hold those of the current linked regions, and no others."""
    def linked(tm):
        return {checks.region for checks in facts.region_checks(tm.regions)
                if checks.needs_node}

    tm = scrambled(identity_map(builtin_triangulation("genus2")), 64, seed=0)
    facts = tm.ribbon_facts()
    assert domain_solve(tm).components == 1
    assert set(facts._ties) == linked(tm) and facts._ties

    def observer(before, after, move):
        assert after.ribbon_facts() is facts
        assert set(facts._ties) == linked(after)

    normal, _trace = normalize_observed(tm, observer)
    assert set(facts._ties) == linked(normal)


def _assert_sums_are_carried(tm: TransverseMap):
    """tm's tiling carries the sums its regions' RegionChecks give: the
    Euler sum and the nonorientable kinds, and it lists the linked checks
    (as a multiset, by identity; a tiling lists them on first use)."""
    tiling = tm.tiling()
    assert tiling is not None
    entries = tm.ribbon_facts().region_checks(tm.regions)
    euler = sum(checks.euler for checks in entries)
    nonorientable = sum(not checks.orientable for checks in entries)
    linked = [checks for checks in entries if checks.needs_node]
    assert (tiling.euler, tiling.nonorientable) == (euler, nonorientable)
    assert Counter(map(id, tiling.linked)) == Counter(map(id, linked))


def test_derived_tilings_carry_the_sums_of_their_regions(monkeypatch):
    """After every move of the memo slices and of the genus2 d = 6 torus
    pinch scramble, and of their normalizations, the tiling derived from
    the input's carries the sums read afresh off the result's regions."""
    derived = Counter()
    derive = transverse.Tiling.derived

    def counted(tiling, tm, facts):
        out = derive(tiling, tm, facts)
        derived["derived" if out is not None else "from scratch"] += 1
        return out

    monkeypatch.setattr(transverse.Tiling, "derived", counted)
    seen = Counter()

    def observer(before, after, move):
        seen[move] += 1
        _assert_sums_are_carried(after)

    maps = [_slice_map(*spec, check=_assert_sums_are_carried) for spec in SLICE]
    maps.append(_genus2_scramble(check=_assert_sums_are_carried))
    for tm in maps:
        normalize_observed(tm, observer)
    assert set(seen) == {"collapse_edge", "join_isolated_circle", "boundary_surgery",
                         "relocate_crosscap"}
    assert derived["derived"] >= 250 and derived["from scratch"] == 0


def _table_edits(tm, rng):
    """In-place edits of a map's dart tables, some keeping the table
    axioms and some breaking them, each as (name, edit)."""
    darts = sorted(tm.pairing)
    a, b = rng.sample(darts, 2)
    fresh = max(darts) + 1

    def swap_rotation(m):
        m.rotation[a], m.rotation[b] = m.rotation[b], m.rotation[a]

    def repeat_rotation(m):
        m.rotation[a] = m.rotation[b]

    def drop_rotation(m):
        del m.rotation[a]

    def drop_dart(m):
        for table in (m.pairing, m.rotation, m.vertex_label, m.dart_label):
            del table[a]

    def drop_label(m):
        del m.dart_label[a]

    def drop_edge_keep_rotation(m):
        p = m.pairing[a]
        del m.edge_sign[min(a, p)]
        for d in (a, p):
            for table in (m.pairing, m.rotation, m.vertex_label, m.dart_label):
                del table[d]

    def repeat_rotation_at_touched_darts(m):
        k = min(a, m.pairing[a])
        m.edge_sign[k] = -m.edge_sign[k]
        m.rotation[b] = m.rotation[a]

    def drop_edge(m):
        p = m.pairing[a]
        del m.edge_sign[min(a, p)]
        for d in (a, p):
            succ = m.rotation[d]
            pred = next(x for x in m.rotation if m.rotation[x] == d)
            m.rotation[pred] = succ if pred != d else pred
            for table in (m.pairing, m.rotation, m.vertex_label, m.dart_label):
                del table[d]

    def rotate_to_nowhere(m):
        m.rotation[a] = fresh

    def add_dart(m):
        m.pairing[fresh] = fresh
        m.rotation[fresh] = fresh
        m.vertex_label[fresh] = m.vertex_label[a]
        m.dart_label[fresh] = m.dart_label[a]

    def swap_partners(m):
        p, q = m.pairing[a], m.pairing[b]
        if len({a, b, p, q}) < 4:
            return
        for k in (min(a, p), min(b, q)):
            del m.edge_sign[k]
        m.pairing[a], m.pairing[p], m.pairing[b], m.pairing[q] = b, q, a, p
        m.edge_sign[min(a, b)] = m.edge_sign[min(p, q)] = 1

    def unpair(m):
        m.pairing[a] = a

    def drop_sign(m):
        del m.edge_sign[min(a, m.pairing[a])]

    def drop_vertex(m, names=("pairing", "rotation", "vertex_label", "dart_label")):
        for d in rotation_orbit(m.rotation, a):
            for name in names:
                del getattr(m, name)[d]

    def drop_vertex_keep_labels(m):
        drop_vertex(m, ("pairing", "rotation", "vertex_label"))

    return [("swap_rotation", swap_rotation), ("repeat_rotation", repeat_rotation),
            ("drop_rotation", drop_rotation), ("drop_dart", drop_dart),
            ("drop_label", drop_label),
            ("drop_edge_keep_rotation", drop_edge_keep_rotation),
            ("repeat_rotation_at_touched_darts", repeat_rotation_at_touched_darts),
            ("drop_edge", drop_edge), ("rotate_to_nowhere", rotate_to_nowhere),
            ("add_dart", add_dart), ("swap_partners", swap_partners),
            ("unpair", unpair), ("drop_sign", drop_sign),
            ("drop_vertex", drop_vertex),
            ("drop_vertex_keep_labels", drop_vertex_keep_labels)]


def test_derived_table_axioms_read_at_the_changed_darts_agree_with_the_oracle(
        monkeypatch):
    """Derived facts check the table axioms only at the darts where the
    tables differ from their parent's (RibbonFacts._tables_hold); after
    in-place edits that keep or break them, table_problem is None exactly
    when it is for fresh facts, and a map whose tables hold matches the
    oracle.  Only edits of the pairing and the signs and deletions of whole
    vertices reach _tables_hold: after an edit of the rotation or the
    labels at a dart that survives (swap_rotation, drop_edge, add_dart,
    ...) derive makes facts without a carry, whose table_problem is
    computed from the tables as fresh facts compute it.  The verdict is
    read with the carry left out, so tables it passed wrongly cannot send
    the carry round an orbit that never closes."""
    rng = random.Random(5)
    seen = Counter()
    carry = transverse.RibbonFacts._carry
    for spec in SLICE[:4]:
        tm = _slice_map(*spec)
        assert validate_map(tm).ok
        parent = tm.ribbon_facts()
        for _round in range(6):
            for name, edit in _table_edits(tm, rng):
                work = tm.copy()
                work.own("pairing", "rotation", "edge_sign", "vertex_label",
                         "dart_label")
                edit(work)
                monkeypatch.setattr(transverse.RibbonFacts, "_carry",
                                    lambda *args: None)
                derived = transverse.RibbonFacts.derive(parent, work)
                monkeypatch.setattr(transverse.RibbonFacts, "_carry", carry)
                holds = transverse.RibbonFacts(work).table_problem is None
                assert (derived.table_problem is None) == holds, name
                seen[name, holds] += 1
                if holds:
                    assert validate_map(work).problems == validate_map(
                        TransverseMap.from_json(work.to_json())).problems, name
    broken = {name for (name, holds) in seen if not holds}
    assert {"repeat_rotation", "drop_rotation", "drop_dart", "rotate_to_nowhere",
            "add_dart", "unpair", "drop_sign", "drop_label", "drop_edge_keep_rotation",
            "repeat_rotation_at_touched_darts", "drop_vertex",
            "drop_vertex_keep_labels"} <= broken
    assert seen["swap_rotation", True] and seen["swap_partners", True] \
        and seen["drop_edge", True]


# --------------------------------------------------------------------------
# Moves that keep the dart tables share them, and record the regions and
# circles they change


TABLES = ("pairing", "rotation", "edge_sign", "vertex_label", "dart_label")
KEEPERS = ("join_isolated_circle", "insert_trivial_circle", "relocate_crosscap")


def _kept_table_moves(monkeypatch, run) -> list:
    """(move name, input, result, the result's record of edits) for every
    join, insert and relocation that run() makes, the record read as the
    move hands its result to its self-check."""
    seen = []
    check = moves._post_move_check

    def recorded(before, after, **kwargs):
        if kwargs["context"] in KEEPERS:
            seen.append((kwargs["context"], before, after, after._edits))
        return check(before, after, **kwargs)

    monkeypatch.setattr(moves, "_post_move_check", recorded)
    run()
    monkeypatch.undo()
    return seen


def test_moves_that_keep_the_tables_record_exactly_what_they_change(monkeypatch):
    """Every join, insert and relocation of the memo slices' scrambles and
    normalizations, and of a map at the CLI's bounds (genus2, d = 6,
    [2, 2], torus pinch, 64 steps), shares its input's dart tables and
    ribbon facts (RibbonFacts.derive hands back the input's own), and its
    record of edits is the difference with its input: the regions gone
    and come, by identity, and the circles set or deleted."""
    def run():
        for spec in SLICE:
            normalize(_slice_map(*spec))
        normalize(_genus2_scramble())

    seen = _kept_table_moves(monkeypatch, run)
    kinds = Counter(name for name, *_rest in seen)
    assert kinds["join_isolated_circle"] >= 100 and kinds["relocate_crosscap"] > 0
    assert kinds["insert_trivial_circle"] >= 100
    for name, before, after, edits in seen:
        facts = before.ribbon_facts()
        assert all(getattr(after, t) is getattr(before, t) for t in TABLES), name
        assert after.ribbon_facts() is facts, name
        assert transverse.RibbonFacts.derive(facts, after) is facts, name
        assert edits.base is before.regions and edits.base_isolated is before.isolated
        assert edits.regions is after.regions and edits.isolated is after.isolated
        was, now = set(before.regions), set(after.regions)
        assert set(edits.gone) == was - now and set(edits.came) == now - was, name
        assert edits.circles == {cid for cid, _circle in
                                 before.isolated.items() ^ after.isolated.items()}, name


def test_a_shared_table_cannot_be_written():
    """A checked map and its copy share the dart tables, the region tuple
    and the circles, and none of them can be written.  A map writes a
    table through its own copy (own), which leaves the original, its
    facts and its check as they were, and the copy's facts are derived."""
    tm = _slice_map(*SLICE[0])
    assert validate_map(tm).ok
    facts = tm.ribbon_facts()
    work = tm.copy()
    for name in TABLES:
        table = getattr(work, name)
        assert table is getattr(tm, name) is facts.tables[TABLES.index(name)]
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
        assert not hasattr(table, "update") and not hasattr(table, "pop")
    with pytest.raises(TypeError):
        work.isolated[max(work.isolated) + 1] = work.isolated[max(work.isolated)]
    with pytest.raises(TypeError):
        work.regions[0] = work.regions[1]
    rotation, = work.own("rotation")
    assert work.own("rotation") == [rotation]      # owned once
    a = next(d for d in rotation if len(facts.vertex_darts(d)) >= 3)
    b = rotation[a]
    rotation[a], rotation[b] = rotation[b], rotation[a]
    assert tm.rotation is facts.tables[1] and tm.rotation[a] == b
    assert tm.ribbon_facts() is facts and facts.rotation[a] == b
    assert work.ribbon_facts() is not facts
    assert work.rotation is not rotation and work.rotation[a] == rotation[a]
    assert work.pairing is tm.pairing       # the tables it did not take
    assert not validate_map(work).ok
    assert validate_map(tm).ok
    assert_matches_oracle(work)
    assert_matches_oracle(tm)


def test_a_region_change_without_a_record_is_checked_from_scratch(monkeypatch):
    """A check derives its tiling from the record of the map's edits
    (TransverseMap.replace).  A map whose regions were set without one, or
    whose record does not start at its tiling's state, is checked from
    scratch and gets the oracle's answers; edits that cancel leave a
    record to derive from."""
    derived = Counter()
    derive = transverse.Tiling.derived

    def counted(tiling, tm, facts):
        out = derive(tiling, tm, facts)
        derived["derived" if out is not None else "from scratch"] += 1
        return out

    monkeypatch.setattr(transverse.Tiling, "derived", counted)
    tm = _slice_map(*SLICE[0])
    validate_map(tm)
    region = tm.regions[0]
    with_summand = tm.copy()
    _add_summand(with_summand, 0)
    summand = with_summand.regions[0]
    unrecorded = tm.copy()
    unrecorded.regions = (summand,) + tm.regions[1:]
    recorded = tm.copy()
    recorded.replace(regions={0: summand})
    late = tm.copy()
    late.replace(regions={0: summand})
    late.regions = (region,) + tm.regions[1:]     # set after the record
    cancelled = tm.copy()
    cancelled.replace(regions={0: summand})
    cancelled.replace(regions={0: region})
    assert (cancelled._edits.gone, cancelled._edits.came) == ({}, {})
    for m, how in ((unrecorded, "from scratch"), (recorded, "derived"),
                   (late, "from scratch"), (cancelled, "derived")):
        derived.clear()
        assert validate_map(m).ok and derived == {how: 1}
        assert _domain_answers(m) == _domain_answers(
            TransverseMap.from_json(m.to_json()))
    assert chi_domain(recorded) < chi_domain(tm)
    assert chi_domain(cancelled) == chi_domain(late) == chi_domain(tm)
    # a region without circuits comes by record; listed again after that
    # check, the record says a region of the tiling came
    closed = Region(region.label, SurfaceKind(True))
    once = tm.copy()
    once.replace(append=(closed,))
    derived.clear()
    assert validate_map(once).ok and derived == {"derived": 1}
    twice = once.copy()
    twice.replace(append=(closed,))
    derived.clear()
    assert validate_map(twice).ok and derived == {"from scratch": 1}
    for m, components in ((once, 2), (twice, 3)):
        assert _domain_answers(m) == _domain_answers(
            TransverseMap.from_json(m.to_json()))
        assert domain_solve(m).components == components
