"""The map reader on malformed documents, and the domain solve against
its verbatim reference.

TransverseMap.from_json is the reference reader: it reads every table and
region element by element.  On seeded mutations of the `bounds` benchmark
documents it must give a map or raise an InputError, never another
exception, and the unmutated documents must read back as they are
written.  The domain solve unites each region's ties with its first one
and gives regions no node; it must give the components, orientability
and chart flips that helpers.reference_solve gives, with a node per
region, on every state of the memo slices' normalizations and of the
`bounds` scrambles, and on hand-built ties."""

import contextlib
import importlib.util
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from surfmap import cli
from surfmap.covers import random_cover
from surfmap.errors import InconsistentParity, InputError, SurfmapError
from surfmap.moves import checked_tiling
from surfmap.surfaces import SurfaceKind, Triangulation, builtin_triangulation
from surfmap.transverse import (Region, TransverseMap, _solve, domain_solve,
                                identity_map, map_from_cover, validate_map)

from helpers import disjoint_union, normalize_observed, reference_solve, scrambled
from test_check_memo import SLICE, _slice_map

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bounds(tmp_path_factory):
    """The `bounds` catalog's maps: (spec, composite text, scrambled text)."""
    workloads = _workloads()
    tmp = tmp_path_factory.mktemp("bounds")
    workloads.bounds_setup(str(tmp))
    return [(m, (tmp / f"{m['name']}-composite.json").read_text(),
             (tmp / f"{m['name']}-scrambled.json").read_text())
            for m in workloads.bounds_maps()]


# --------------------------------------------------------------------------
# The reader


def outcome(doc):
    """The reader's map as its document, or the InputError it raised
    (any other exception propagates)."""
    try:
        return TransverseMap.from_json(doc).to_json()
    except InputError as ex:
        return ex


def _dicts(node):
    """Every dict inside a JSON document, the document first."""
    if isinstance(node, dict):
        yield node
        for v in node.values():
            yield from _dicts(v)
    elif isinstance(node, list):
        for v in node:
            yield from _dicts(v)


TABLES = ("pairing", "rotation", "edge_sign", "vertex_label", "dart_label")


def _int_slot(doc, rng):
    """(container, key) of a random integer the reader reads: a table
    value, a dart label's or a token's element, a region label, a kind
    count, an iso side field or a circle's edge."""
    where = rng.choice(("table", "label", "token", "region", "kind", "iso", "circle"))
    regions = doc["regions"]
    if where == "table":
        table = doc[rng.choice(TABLES[:4])]
        return table, rng.choice(list(table))
    if where == "label":
        return doc["dart_label"][rng.choice(list(doc["dart_label"]))], rng.randrange(2)
    ribbons = [c for r in regions for c in r["circuits"] if c["kind"] == "ribbon"]
    if where == "token" and ribbons:
        return rng.choice(rng.choice(ribbons)["seq"]), rng.randrange(2)
    isos = [c for r in regions for c in r["circuits"] if c["kind"] == "iso"]
    if where == "iso" and isos:
        return rng.choice(isos), rng.choice(("index", "side", "direction"))
    if where == "circle" and doc["isolated"]:
        return rng.choice(doc["isolated"]), "edge"
    if where == "kind":
        return rng.choice(regions)["kind"], rng.choice(("handles", "crosscaps",
                                                        "boundary"))
    return rng.choice(regions), "label"


def _bool(doc, rng):
    box, key = _int_slot(doc, rng)
    box[key] = rng.choice((True, False))


def _numeric_string(doc, rng):
    box, key = _int_slot(doc, rng)
    box[key] = rng.choice((str(box[key]), f" {box[key]}", f"0{box[key]}", "1_0",
                           "0x1", "", "-0", "1.0"))


def _float(doc, rng):
    box, key = _int_slot(doc, rng)
    box[key] = float(box[key]) if isinstance(box[key], int) else 1.5


def _duplicate_key(doc, rng):
    table = doc[rng.choice(TABLES)]
    key = rng.choice(list(table))
    other = table[rng.choice(list(table))]
    table[rng.choice(("0", " ", "+")) + key] = other


def _odd_key(doc, rng):
    table = doc[rng.choice(TABLES)]
    key = rng.choice(list(table))
    value = table.pop(key)
    table[rng.choice((int(key), "x", "", "1e3", True, f"{key}.0"))] = value


def _missing_key(doc, rng):
    box = rng.choice(list(_dicts(doc)))
    if box:
        del box[rng.choice(list(box))]


def _short_pair(doc, rng):
    pairs = ([doc["dart_label"][rng.choice(list(doc["dart_label"]))]]
             + [t for r in doc["regions"] for c in r["circuits"]
                if c["kind"] == "ribbon" for t in c["seq"]])
    pair = rng.choice(pairs)
    if rng.random() < 0.5:
        pair.pop()
    else:
        pair.append(0)


def _circuit_kind(doc, rng):
    circuits = [c for r in doc["regions"] for c in r["circuits"]]
    rng.choice(circuits)["kind"] = rng.choice(("arc", "Ribbon", 1, None, ["ribbon"]))


def _kind_flag(doc, rng):
    # the regions before it read a kind equal by value with the flag true
    rng.choice(doc["regions"][1:])["kind"]["orientable"] = rng.choice((1, 0, "true"))


def _wrong_container(doc, rng):
    box = rng.choice(list(_dicts(doc)))
    if box:
        key = rng.choice(list(box))
        box[key] = rng.choice(({}, [], None, {"0": [1]}, [[0, 1]]))


def _target(doc, rng):
    target = doc["target"]
    v = rng.choice(list(target["rotations"]))
    if rng.random() < 0.5:
        target["rotations"][v].reverse()      # valid, but no built-in
    else:
        target["edges"][0].reverse()          # no longer a surface


MUTATIONS = {f.__name__.lstrip("_"): f for f in (
    _bool, _numeric_string, _float, _duplicate_key, _odd_key, _missing_key,
    _short_pair, _circuit_kind, _kind_flag, _wrong_container, _target)}


NEVER_READ = {"bool", "circuit_kind", "float", "kind_flag", "short_pair"}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_documents_read_as_the_reference_reads_them(bounds, name):
    rng = random.Random(name)
    mutate = MUTATIONS[name]
    read = failed = 0
    for _spec, composite, text in bounds:
        for doc_text in (composite, text):
            for _ in range(8):
                doc = json.loads(doc_text)
                mutate(doc, rng)
                if rng.random() < 0.25:
                    mutate(doc, rng)
                got = outcome(doc)
                failed += isinstance(got, InputError)
                read += not isinstance(got, InputError)
    # a duplicate key is read (the last one wins); every other mutation
    # makes documents fail, and the milder ones leave some readable
    assert failed > 0 or name == "duplicate_key"
    assert read > 0 or name in NEVER_READ


def test_unmutated_documents_read_as_the_reference_reads_them(bounds):
    for _spec, composite, text in bounds:
        for doc_text in (composite, text):
            doc = json.loads(doc_text)
            assert outcome(doc) == doc


# --------------------------------------------------------------------------
# What a region's checks find on their own (RegionChecks), on seeded
# mutations of the `bounds` documents


def _region_problems(bounds, seed, mutate):
    """For each `bounds` document with a region that mutate(region, rng)
    can change (it returns whether it could), one such region drawn by a
    seeded rng and changed: the problems validate_map reports on the map
    read back, and the region's position."""
    rng = random.Random(seed)
    out = []
    for _spec, composite, text in bounds:
        for doc_text in (composite, text):
            doc = json.loads(doc_text)
            regions = list(enumerate(doc["regions"]))
            rng.shuffle(regions)
            ri = next((ri for ri, region in regions if mutate(region, rng)), None)
            if ri is None:
                continue
            problems = validate_map(TransverseMap.from_json(doc)).problems
            out.append((problems, ri))
    return out


def test_a_region_labeled_by_an_unknown_triangle_is_reported(bounds):
    def relabel(region, rng):
        region["label"] = rng.choice((-1, 10_000))
        return True

    reports = _region_problems(bounds, "unknown triangle", relabel)
    assert len(reports) == 2 * len(bounds)
    for problems, ri in reports:
        assert f"region {ri} labeled by unknown triangle" in problems


def test_a_region_with_a_bad_isolated_side_is_reported(bounds):
    def bad_side(region, rng):
        sides = [c for c in region["circuits"] if c["kind"] == "iso"]
        if sides:
            rng.choice(sides)["side"] = rng.choice((-1, 2))
        return bool(sides)

    # the scrambled documents have circles
    reports = _region_problems(bounds, "bad isolated side", bad_side)
    assert len(reports) >= len(bounds)
    for problems, ri in reports:
        assert f"region {ri} references a bad isolated side" in problems


def _torus_lift(seed: int) -> dict:
    """The document of a torus_7 d = 2 lift, whose vertices have degree 6,
    and the darts of its vertex 0 in rotation order."""
    doc = map_from_cover(random_cover(builtin_triangulation("torus_7"), 2, None,
                                      seed=seed)).to_json()
    orbit = [0]
    while doc["rotation"][str(orbit[-1])] != 0:
        orbit.append(doc["rotation"][str(orbit[-1])])
    return doc, orbit


def _vertex_problems(doc) -> list:
    return validate_map(TransverseMap.from_json(doc)).problems


def test_a_vertex_labeled_by_an_unknown_target_vertex_is_reported():
    rng = random.Random("unknown target vertex")
    doc, orbit = _torus_lift(rng.randrange(100))
    for dart in orbit:
        doc["vertex_label"][str(dart)] = 99
    assert _vertex_problems(doc) == ["vertex 0 labeled by unknown target vertex 99"]


def test_dart_labels_out_of_the_target_rotation_are_reported():
    """Two darts of a degree-6 vertex swapped in its rotation: the vertex
    keeps its darts, but their labels read the target rotation neither
    way."""
    rng = random.Random("out of rotation")
    doc, orbit = _torus_lift(rng.randrange(100))
    assert len(orbit) == 6
    i = rng.randrange(1, 5)
    orbit[i], orbit[i + 1] = orbit[i + 1], orbit[i]
    for dart, successor in zip(orbit, orbit[1:] + orbit[:1]):
        doc["rotation"][str(dart)] = successor
    assert _vertex_problems(doc) == [
        "dart labels around vertex 0 do not read the target rotation"]


def test_mixed_preimage_parity_is_reported_over_a_disconnected_target():
    """sphere_tetra's identity map over two copies of sphere_tetra: each
    vertex of the first copy has one preimage, each of the second none.
    Over a connected target no map reaches this check: across each target
    edge the preimage counts of its two ends agree mod 2."""
    tet = builtin_triangulation("sphere_tetra")
    tm = identity_map(tet)
    two = TransverseMap(disjoint_union(tet, tet), tm.pairing, tm.rotation,
                        tm.edge_sign, tm.vertex_label, tm.dart_label, tm.isolated,
                        tm.regions)
    assert validate_map(two).problems == [
        "preimage counts of target vertices have mixed parity"]


# --------------------------------------------------------------------------
# `analyze validate` against the entry check


def run_cli(argv):
    """(exit code, the JSON object printed on stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())


def accepted_on_entry(doc) -> bool:
    """Whether cli._valid_map, the check every command but `analyze
    validate` runs first, accepts the document's map."""
    try:
        cli._valid_map(TransverseMap.from_json(doc))
    except SurfmapError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_validate_agrees_with_the_entry_check_on_mutated_documents(bounds, tmp_path,
                                                                   name):
    """`analyze validate` says valid exactly when the entry check accepts
    the document: two mutated documents per `bounds` document, drawn as
    the reader test draws its eight."""
    rng = random.Random(f"validate {name}")
    mutate = MUTATIONS[name]
    path = tmp_path / "doc.json"
    for _spec, composite, text in bounds:
        for doc_text in (composite, text):
            for _ in range(2):
                doc = json.loads(doc_text)
                mutate(doc, rng)
                if rng.random() < 0.25:
                    mutate(doc, rng)
                path.write_text(json.dumps(doc))
                rc, out = run_cli(["analyze", "validate", str(path)])
                assert (rc == 0 and out["valid"]) == accepted_on_entry(doc)


def test_mixed_parity_is_invalid_to_validate_and_impossible_on_entry(bounds, tmp_path):
    """A duplicate key that gives one dart another vertex label leaves the
    preimage counts with mixed parity: `analyze validate` says invalid
    (exit 1), and the entry check of every other command raises
    InconsistentParity, an impossible outcome (exit 2)."""
    doc = json.loads(bounds[0][1])
    label = doc["vertex_label"]["0"]
    doc["vertex_label"]["00"] = next(v for v in doc["target"]["vertices"] if v != label)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, out = run_cli(["analyze", "validate", str(path)])
    assert rc == 1 and not out["valid"]
    with pytest.raises(InconsistentParity):
        cli._valid_map(TransverseMap.from_json(doc))
    rc, out = run_cli(["analyze", "degree", str(path)])
    assert rc == 2 and out["error"] == "impossible"


# --------------------------------------------------------------------------
# The solve


def _answers(solve):
    return (solve.components, solve.orientable,
            solve.chart_flips if solve._uf.ok else None)


def assert_solve_matches_reference(tm):
    tiling = checked_tiling(tm, "solve reference")
    sums = (tiling.euler, tiling.nonorientable, tiling.linked)
    assert _answers(tiling.domain_solve()) == _answers(
        reference_solve(tiling.facts, tiling.isolated, *sums))


def test_solve_of_every_normalization_state_of_the_slices_matches_the_reference():
    states = 0
    for spec in SLICE:
        tm = _slice_map(*spec, check=assert_solve_matches_reference)
        assert_solve_matches_reference(tm)

        def observer(_before, after, _move):
            nonlocal states
            states += 1
            assert_solve_matches_reference(after)

        normalize_observed(tm, observer)
    assert states > 50


def test_solve_of_every_state_of_the_bounds_scrambles_matches_the_reference(bounds):
    for spec, composite, _text in bounds:
        tm = TransverseMap.from_json(json.loads(composite))
        assert_solve_matches_reference(tm)
        scrambled(tm, 64, spec["scramble_seed"], check=assert_solve_matches_reference)


def _solves(tm, linked):
    """The package's and the reference's answers for tm's circles and the
    regions `linked` (stand-ins with a region key and ties)."""
    facts = tm.ribbon_facts()
    return [_answers(solve(facts, tm.isolated, 0, 0, linked))
            for solve in (_solve, reference_solve)]


def _stand_in(anchors=(), circles=()):
    return SimpleNamespace(region=object(), ties=(tuple(anchors), tuple(circles)))


def test_solve_of_hand_built_ties_matches_the_reference():
    tm = map_from_cover(random_cover(builtin_triangulation("torus_7"), 2, [2, 2],
                                     seed=1))
    tm = scrambled(tm, 3, 5)
    facts = tm.ribbon_facts()
    cids = list(tm.isolated)
    by_vertex = {}
    for d, rep in facts.vertex_of.items():
        by_vertex.setdefault(rep, []).append(d)
    d1, d2 = next(darts for darts in by_vertex.values() if len(darts) >= 2)[:2]
    cases = {
        # a linked region with no tie is a class of its own
        "no tie": [_stand_in()],
        "no ties": [_stand_in(), _stand_in(), _stand_in([(d1, 0)], [(cids[0], 1)])],
        # two anchors at one vertex resolve to one tie
        "one tie": [_stand_in([(d1, 1), (d2, 1)])],
        # and to a contradiction when their bits differ
        "contradiction": [_stand_in([(d1, 0), (d2, 1)])],
        "circles only": [_stand_in((), [(cids[0], 0), (cids[1], 1)]),
                         _stand_in((), [(cids[1], 0), (cids[0], 0)])],
        "circle contradiction": [_stand_in((), [(cids[0], 0), (cids[1], 1)]),
                                 _stand_in([(d1, 0)], [(cids[0], 1), (cids[1], 1)])],
    }
    for name, linked in cases.items():
        new, old = _solves(tm, linked)
        assert new == old, name
    assert _solves(tm, cases["contradiction"])[0][1] is False
    assert _solves(tm, cases["no tie"])[0][0] == _solves(tm, [])[0][0] + 1


def test_solve_of_a_closed_region_alone_matches_the_reference():
    """A degree-0 map onto a sphere: no graph, one closed region."""
    tri = builtin_triangulation("sphere_tetra")
    tm = TransverseMap(tri, {}, {}, {}, {}, {}, {}, [Region(0, SurfaceKind(True))])
    assert domain_solve(tm).components == 1
    assert_solve_matches_reference(tm)
    two = TransverseMap(tri, {}, {}, {}, {}, {}, {},
                        [Region(0, SurfaceKind(True)), Region(1, SurfaceKind(False, 0, 1))])
    assert domain_solve(two).components == 2
    assert_solve_matches_reference(two)
    assert_solve_matches_reference(identity_map(Triangulation(
        tri.vertices, tri.edges, tri.triangles, tri.rotations)))
