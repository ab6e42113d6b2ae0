"""Acceptance suite: every criterion checked exactly, one summary line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
All arithmetic is integer-exact; there are no tolerances to tune.
"""

import random
import time

import pytest

from surfmap.covers import (assemble_total_space, cover_chi, induced_triangulation,
                            random_cover)
from surfmap.errors import Unsatisfiable
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import (add_pinch, chi_domain, domain_orientable,
                                edge_count, identity_map, map_from_cover,
                                mod2_degree, signed_degree, validate_map)
from surfmap.moves import insert_trivial_circle, is_normal, normalize
from surfmap.factorize import (compose_with_covering, factorize,
                               geometric_degree, orientation_true)
from surfmap.contours import synthesize_contour

from helpers import builtin_example, domain_kind, normalize_observed, scrambled

BASES = ("sphere_tetra", "rp2_6", "torus_7", "genus2")     # chi 2, 1, 0, -2
PINCHES = (None, SurfaceKind(True, handles=1), SurfaceKind(False, crosscaps=1),
           SurfaceKind(False, crosscaps=2), SurfaceKind(True, handles=2),
           SurfaceKind(False, crosscaps=3), SurfaceKind(False, crosscaps=4))
BRANCH_CHOICES = (None, [2, 2], [3, 3], [2, 2, 2, 2], [4, 4], [3, 2, 2, 3])


def _corpus_specs(minimum=500):
    specs = []
    seed = 0
    while len(specs) < minimum:
        for base in BASES:
            for d in (1, 2, 3, 4):
                for branch in BRANCH_CHOICES:
                    if branch and max(branch) > d:
                        continue
                    for pinch in PINCHES:
                        specs.append((base, d, branch, pinch, seed))
        seed += 1
    return specs


class Record:
    __slots__ = ("name", "tm", "chi_m", "chi_n", "mod2", "orientable",
                 "degree", "decomp", "scramble_steps")


def _build_corpus():
    """Deterministic corpus of scrambled pinched covers; each record holds
    the map together with its normalized decomposition."""
    records = []
    rng = random.Random(20240)
    for (base_name, d, branch, pinch, seed) in _corpus_specs():
        base = builtin_triangulation(base_name)
        try:
            cover = random_cover(base, d, branch, seed=seed, max_tries=800)
        except Unsatisfiable:
            continue
        tm = map_from_cover(cover)
        if pinch is not None:
            tm = add_pinch(tm, rng.randrange(len(tm.regions)), pinch)
        steps = rng.randrange(0, 21)
        tm = scrambled(tm, steps, seed=rng.randrange(10 ** 6))
        rec = Record()
        rec.name = f"{base_name}/d{d}/b{branch}/p{pinch and pinch.name()}/s{seed}"
        rec.tm = tm
        rec.chi_m = chi_domain(tm)
        rec.chi_n = base.euler
        rec.mod2 = mod2_degree(tm)
        rec.orientable = domain_orientable(tm) and base.orientability()
        rec.scramble_steps = steps
        norm, _trace = normalize(tm)
        rec.decomp = factorize(norm)
        rec.degree = 0 if rec.decomp.variant == "graph_like" else rec.decomp.d
        records.append(rec)
        if len(records) >= 520:
            break
    return records


@pytest.fixture(scope="module")
def corpus():
    t0 = time.time()
    records = _build_corpus()
    elapsed = time.time() - t0
    assert len(records) >= 500
    print(f"\n[acceptance] corpus: {len(records)} maps built and normalized "
          f"in {elapsed:.1f}s")
    assert elapsed < 120, "corpus run exceeded the two-minute budget"
    return records


def test_criterion_1_degree_inequality(corpus):
    """chi(M) <= d*chi(N) with the exact deficit identity, corpus-wide."""
    positive = 0
    for rec in corpus:
        if rec.degree == 0:
            continue
        positive += 1
        d, dec = rec.degree, rec.decomp
        assert rec.chi_m <= d * rec.chi_n, rec.name
        branch_defect = sum(i - 1 for i in dec.branch_indices)
        pinch_defect = sum(1 - p.collapsed_chi for p in dec.pinches)
        assert d * rec.chi_n - rec.chi_m == branch_defect + pinch_defect, rec.name
        assert dec.kneser_deficit == branch_defect + pinch_defect >= 0, rec.name
    print(f"[acceptance] criterion 1: PASS - inequality and deficit identity "
          f"exact on {positive} positive-degree maps of {len(corpus)}")


def test_criterion_2_covering_degree():
    """A connected k-sheeted branched covering has degree k, and scrambling
    plus normalization recovers it."""
    checked = 0
    for name, k, branch in (("sphere_tetra", 1, None), ("torus_7", 2, None),
                            ("sphere_tetra", 2, [2, 2]), ("torus_7", 3, None),
                            ("sphere_tetra", 3, [3, 3]), ("genus2", 4, [2, 2]),
                            ("sphere_tetra", 4, [4, 4]), ("torus_7", 4, None)):
        tri = builtin_triangulation(name)
        for seed in (0, 1):
            cover = random_cover(tri, k, branch, seed=seed)
            tm = map_from_cover(cover)
            assert geometric_degree(tm) == k
            assert geometric_degree(scrambled(tm, 10, seed=seed + 7)) == k
            checked += 1
    print(f"[acceptance] criterion 2: PASS - degree k recovered for k in 1..4 "
          f"({checked} covers, scrambled and plain)")


def test_criterion_3_riemann_hurwitz_oracle():
    """Sheet-count arithmetic equals the assembled total space exactly."""
    count = 0
    for name in ("sphere_tetra", "rp2_6", "torus_7", "klein_8", "genus2"):
        tri = builtin_triangulation(name)
        for d in (1, 2, 3, 4):
            for branch in BRANCH_CHOICES:
                if branch and max(branch) > d:
                    continue
                for seed in (0, 1, 2, 3):
                    try:
                        cover = random_cover(tri, d, branch, seed=seed,
                                             max_tries=600)
                    except Unsatisfiable:
                        continue
                    total = assemble_total_space(cover)
                    assert total.euler == cover_chi(cover)
                    assert total.validate() == []
                    count += 1
    assert count >= 200
    print(f"[acceptance] criterion 3: PASS - formula == assembly on {count} covers")


def test_criterion_4_fold_normalizes_to_graph():
    fold = builtin_example("fold_degree_zero")
    variants = [fold] + [scrambled(fold, 10, seed=s) for s in range(5)]
    for tm in variants:
        norm, _trace = normalize(tm)
        state = is_normal(norm)
        assert state["graph_like"] and state["normal"]
        assert geometric_degree(tm) == 0
        assert mod2_degree(tm) == 0
    print("[acceptance] criterion 4: PASS - fold map and 5 scrambles all "
          "reach circle-only form with degree 0")


def test_criterion_5_crosscap_pinch_model(corpus):
    rp = builtin_example("rp2_pinch")
    d, dec = geometric_degree(rp, with_decomposition=True)
    assert d == 1
    assert dec.branch_indices == []
    assert len(dec.pinches) == 1 and not dec.pinches[0].kind.orientable
    for rec in corpus:
        if rec.decomp.variant != "pinched_cover":
            continue
        if any(not p.kind.orientable for p in rec.decomp.pinches):
            assert rec.decomp.branch_indices == [], rec.name
    print("[acceptance] criterion 5: PASS - crosscap pinch has degree 1 and no "
          "branch points; exclusion holds on every corpus factorization")


def test_criterion_6_composition_with_covering():
    tor = builtin_triangulation("torus_7")
    checked = []
    for k, seed in ((2, 1), (3, 2)):
        q = random_cover(tor, k, None, seed=seed)
        total, _labels = induced_triangulation(q)
        f_primes = (("identity", identity_map(total), 1),
                    ("scrambled", scrambled(identity_map(total), 8, seed), 1),
                    ("handle-pinch", add_pinch(identity_map(total), 0,
                                               SurfaceKind(True, handles=1)), 1))
        for label, f_prime, deg_f in f_primes:
            composed = compose_with_covering(f_prime, q)
            assert geometric_degree(composed) == k * deg_f
            checked.append((k, label))
    print(f"[acceptance] criterion 6: PASS - degree multiplies through "
          f"unbranched coverings ({len(checked)} compositions)")


def test_criterion_7_degree_comparisons(corpus):
    signed_checked = 0
    for rec in corpus:
        assert rec.degree % 2 == rec.mod2, rec.name
        if rec.orientable and rec.decomp.variant == "pinched_cover" \
                and orientation_true(rec.decomp):
            assert abs(signed_degree(rec.tm)) == rec.degree, rec.name
            signed_checked += 1
    assert signed_checked > 0
    print(f"[acceptance] criterion 7: PASS - degree matches mod-2 degree on "
          f"{len(corpus)} maps and |signed degree| on {signed_checked} "
          f"orientation-true orientable maps")


def test_criterion_8_move_invariants(corpus):
    """Every move preserves the domain invariants; reducing moves strictly
    drop the edge count.  (Each move also self-checks these internally and
    raises on drift, so the whole corpus enforces this criterion; here a
    sample is re-verified externally.)"""
    moves_seen = {}

    def observer(before, after, move):
        assert validate_map(after).ok
        assert chi_domain(after) == chi_domain(before)
        assert domain_kind(after) == domain_kind(before)
        assert mod2_degree(after) == mod2_degree(before)
        if move in ("collapse_edge", "join_isolated_circle"):
            assert edge_count(after) < edge_count(before)
        elif move == "insert_trivial_circle":
            assert edge_count(after) == edge_count(before) + 1
        else:
            assert edge_count(after) == edge_count(before)
        moves_seen[move] = moves_seen.get(move, 0) + 1

    sample = [rec for rec in corpus if rec.scramble_steps > 0][:40]
    for rec in sample:
        normalize_observed(rec.tm, observer)
    # scramble moves are verified too
    tm = identity_map(builtin_triangulation("sphere_tetra"))
    for step in range(10):
        nxt = insert_trivial_circle(tm, 0, tm.target.triangle_edges(
            tm.regions[0].label)[step % 3])
        observer(tm, nxt, "insert_trivial_circle")
        tm = nxt
    total_moves = sum(moves_seen.values())
    print(f"[acceptance] criterion 8: PASS - invariants re-verified after "
          f"{total_moves} single moves ({moves_seen}); no normalization "
          f"ever got stuck on the corpus")


def test_criterion_9_contours(corpus):
    tet = builtin_triangulation("sphere_tetra")
    tm3 = map_from_cover(random_cover(tet, 3, [3, 3], seed=7))
    _d, dec3 = geometric_degree(tm3, with_decomposition=True)
    c3 = synthesize_contour(dec3)
    assert [f.cusps for f in c3.folds] == [5, 5] and c3.nodes == 0

    _d, dec_rp = geometric_degree(builtin_example("rp2_pinch"),
                                  with_decomposition=True)
    c_rp = synthesize_contour(dec_rp)
    assert [f.cusps for f in c_rp.folds] == [1, 1] and c_rp.nodes == 0

    checked = 0
    for rec in corpus:
        if rec.decomp.variant != "pinched_cover":
            continue
        contour = synthesize_contour(rec.decomp)
        assert contour.nodes == 0, rec.name
        expected = len(rec.decomp.branch_indices) + sum(
            p.kind.handles if p.kind.orientable else 2 * p.kind.crosscaps
            for p in rec.decomp.pinches)
        assert len(contour.folds) == expected, rec.name
        checked += 1
    print(f"[acceptance] criterion 9: PASS - nodes always 0 ({checked} corpus "
          f"contours); 3-sheet double-branch gives two 5-cusp folds; the "
          f"crosscap pinch gives two 1-cusp folds")
