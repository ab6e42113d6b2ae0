"""The memoized self-checks against the from-scratch oracle.

Every map carries ribbon facts that may have been inherited from the map
it was copied from.  The oracle is the same question asked of
TransverseMap.from_json(tm.to_json()), which shares nothing with `tm`.
"""

import random
from collections import Counter

import pytest

from surfmap import moves
from surfmap.covers import random_cover
from surfmap.errors import InternalInconsistency
from surfmap.moves import (_post_move_check, insert_trivial_circle, normalize)
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import (IsoSide, RibbonCircuit, TransverseMap,
                                add_pinch, chi_domain, classify_circuit,
                                domain_orientable, map_from_cover,
                                mod2_degree, signed_degree, validate_map)

from helpers import scrambled

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


def assert_matches_oracle(tm: TransverseMap):
    fresh = TransverseMap.from_json(tm.to_json())
    live_rep, fresh_rep = validate_map(tm), validate_map(fresh)
    assert live_rep.problems == fresh_rep.problems
    assert live_rep.circuit_classes == fresh_rep.circuit_classes
    assert tm.trace_circuits() == fresh.trace_circuits()
    for region, fresh_region in zip(tm.regions, fresh.regions):
        for c, fc in zip(region.circuits, fresh_region.circuits):
            assert classify_circuit(tm, region, c) == \
                classify_circuit(fresh, fresh_region, fc)
    if live_rep.ok:
        assert chi_domain(tm) == chi_domain(fresh)
        assert domain_orientable(tm) == domain_orientable(fresh)
        assert mod2_degree(tm) == mod2_degree(fresh)
        if tm.target.orientability() and domain_orientable(tm):
            assert signed_degree(tm) == signed_degree(fresh)


def _slice_map(base_name, d, branch, pinch, seed):
    tm = map_from_cover(random_cover(builtin_triangulation(base_name), d,
                                     branch, seed=seed, max_tries=800))
    if pinch is not None:
        tm = add_pinch(tm, seed % len(tm.regions), pinch)
    return scrambled(tm, 8, seed=seed + 11)


def test_every_move_of_a_corpus_slice_matches_the_oracle():
    seen = set()

    def observer(before, after, move):
        seen.add(move)
        assert_matches_oracle(after)
        assert_matches_oracle(before)

    for spec in SLICE:
        tm = _slice_map(*spec)
        assert_matches_oracle(tm)
        normalize(tm, observer=observer)
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
    work.edge_sign[k] = -work.edge_sign[k]
    work.invalidate_caches()
    assert any("band geometry" in p for p in validate_map(work).problems)
    assert validate_map(tm).ok


def test_tampered_rotation_entry_is_reported(checked):
    tm, work = checked
    a = next(d for d in work.pairing if len(work.vertex_darts(d)) >= 3)
    b = work.rotation[a]
    work.rotation[a], work.rotation[b] = work.rotation[b], work.rotation[a]
    work.invalidate_caches()
    assert not validate_map(work).ok
    assert validate_map(tm).ok


def _add_summand(region):
    kind = region.kind
    region.kind = (SurfaceKind(True, kind.handles + 1, 0, kind.boundary)
                   if kind.orientable else
                   SurfaceKind(False, 0, kind.crosscaps + 1, kind.boundary))


def test_tampered_region_kind_is_reported(checked):
    tm, work = checked
    _add_summand(work.regions[0])
    work.invalidate_caches()
    assert validate_map(work).ok        # kinds are free data for the validator
    with pytest.raises(InternalInconsistency, match="Euler characteristic drifted"):
        _post_move_check(tm, work, context="tamper")
    # tampered after its own check, a map's recorded invariants are stale;
    # reusing them would report a drift in the next move
    _add_summand(tm.regions[0])
    tm.invalidate_caches()
    chi = chi_domain(TransverseMap.from_json(tm.to_json()))
    edge = tm.target.triangle_edges(tm.regions[0].label)[0]
    assert chi_domain(insert_trivial_circle(tm, 0, edge)) == chi


def test_tampered_iso_side_is_reported(checked):
    tm, work = checked
    ri, pos, side = next((ri, pos, c) for ri, reg in enumerate(work.regions)
                         for pos, c in enumerate(reg.circuits)
                         if isinstance(c, IsoSide) and c.side == 1)
    work.regions[ri].circuits[pos] = IsoSide(side.index, 0, side.direction)
    work.invalidate_caches()
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
    work.regions[ri].circuits[pos] = RibbonCircuit(c.seq[2:] + c.seq[:1])
    problems = validate_map(work).problems
    assert any("not an alternating boundary walk" in p for p in problems)
    assert validate_map(tm).ok
