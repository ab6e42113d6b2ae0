"""The CLI's input contract: every document it reads is checked on entry.

Malformed documents and invalid maps exit 1 with a JSON error object
(`{"error": "input", ...}`), never with a traceback; a normalization
dead end exits 3 with its report as a JSON object.
"""

import contextlib
import copy
import io
import json
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from surfmap import cli, covers, moves, transverse
from surfmap.errors import InputError, Stuck
from surfmap.surfaces import SurfaceKind, builtin_triangulation
from surfmap.transverse import (TransverseMap, ValidationReport, add_pinch,
                                identity_map)

from helpers import tube_cover_map

ANALYZE = ("degree", "kneser", "factorize", "normalize", "contours")


def run_cli(argv):
    """(exit code, the JSON object printed on stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, lines
    return rc, json.loads(lines[0])


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Small valid documents of every type, as parsed JSON."""
    tmp = tmp_path_factory.mktemp("docs")
    paths = {"cover": tmp / "cover.json", "map": tmp / "map.json"}
    assert run_cli(["generate", "cover", "--base", "torus_7", "--d", "2",
                    "--seed", "1", "--out", str(paths["cover"])])[0] == 0
    assert run_cli(["generate", "composite", "--base", "sphere_tetra", "--d", "2",
                    "--branch", "2,2", "--pinch", "rp2", "--seed", "0",
                    "--out", str(tmp / "pinched.json")])[0] == 0
    assert run_cli(["generate", "scramble", "--in", str(tmp / "pinched.json"),
                    "--steps", "3", "--seed", "1", "--out", str(paths["map"])])[0] == 0
    out = {k: json.loads(p.read_text()) for k, p in paths.items()}
    out["triangulation"] = builtin_triangulation("rp2_6").to_json()
    return out


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _missing_key(doc):
    del doc["pairing"]


def _non_integer_dart(doc):
    doc["pairing"]["x"] = 1


def _short_dart_label(doc):
    doc["dart_label"][next(iter(doc["dart_label"]))] = [0]


def _unknown_target_vertex(doc):
    doc["target"]["edges"][0] = [0, 99]


MALFORMED = {
    "missing_key": _missing_key,
    "non_integer_dart": _non_integer_dart,
    "short_dart_label": _short_dart_label,
    "unknown_target_vertex": _unknown_target_vertex,
}


@pytest.mark.parametrize("what", ("validate",) + ANALYZE)
@pytest.mark.parametrize("case", sorted(MALFORMED) + ["top_level_list"])
def test_malformed_document_is_an_input_error(tmp_path, docs, case, what):
    doc = copy.deepcopy(docs["map"])
    if case == "top_level_list":
        doc = [doc]
    else:
        MALFORMED[case](doc)
    rc, out = run_cli(["analyze", what, _write(tmp_path / "bad.json", doc)])
    assert rc == 1 and out["error"] == "input"


# --------------------------------------------------------------------------
# A map document is read element by element: integers written as decimal
# strings are accepted, and every error text stays the same


def _as_strings(doc):
    """The map document with each integer that the format also takes as a
    decimal string written as one: dart table values, dart labels, ribbon
    tokens and the counts of region kinds."""
    doc = copy.deepcopy(doc)
    for key in ("pairing", "rotation", "edge_sign", "vertex_label"):
        doc[key] = {d: str(v) for d, v in doc[key].items()}
    doc["dart_label"] = {d: [str(x) for x in l] for d, l in doc["dart_label"].items()}
    for region in doc["regions"]:
        region["kind"] = {k: v if isinstance(v, bool) else str(v)
                          for k, v in region["kind"].items()}
        for c in region["circuits"]:
            if c["kind"] == "ribbon":
                c["seq"] = [[str(x) for x in t] for t in c["seq"]]
    return doc


def _counting_readers(monkeypatch):
    """Counts of the element-by-element readers from_json uses."""
    calls = {"doc_int": 0, "doc_pair": 0}
    for name in calls:
        def counted(*args, _name=name, _read=getattr(transverse, name)):
            calls[_name] += 1
            return _read(*args)
        monkeypatch.setattr(transverse, name, counted)
    return calls


def test_integers_written_as_strings_are_read(docs, monkeypatch):
    calls = _counting_readers(monkeypatch)
    tm = TransverseMap.from_json(docs["map"])
    again = TransverseMap.from_json(_as_strings(docs["map"]))
    assert calls["doc_int"] > 0 and calls["doc_pair"] > 0
    assert again.to_json() == tm.to_json() == docs["map"]
    for key in ("pairing", "rotation", "edge_sign", "vertex_label", "dart_label"):
        assert getattr(again, key) == getattr(tm, key)


def _set_first(table, value):
    table[next(iter(table))] = value


LOAD_ERRORS = {
    "dart key": (lambda doc: doc["pairing"].update({"x": 1}),
                 "transverse_map pairing dart: expected an integer, got 'x'"),
    "float value": (lambda doc: _set_first(doc["rotation"], 1.0),
                    "transverse_map rotation: expected an integer, got 1.0"),
    "bool value": (lambda doc: _set_first(doc["edge_sign"], True),
                   "transverse_map edge_sign: expected an integer, got True"),
    "vertex id": (lambda doc: _set_first(doc["vertex_label"], [0]),
                  "transverse_map vertex_label: expected an integer or string id, "
                  "got [0]"),
    "short dart label": (lambda doc: _set_first(doc["dart_label"], [0]),
                         "transverse_map dart_label: expected a pair, got [0]"),
    "token": (lambda doc: next(c for r in doc["regions"] for c in r["circuits"]
                               if c["kind"] == "ribbon")["seq"].append([1, "a"]),
              "transverse_map circuit token: expected an integer, got 'a'"),
    "region label": (lambda doc: doc["regions"][-1].update(label="0"),
                     "transverse_map region: 'label' must be a JSON int"),
    "kind count": (lambda doc: doc["regions"][-1]["kind"].update(handles=True),
                   "surface kind handles: expected an integer, got True"),
    "kind flag": (lambda doc: doc["regions"][-1]["kind"].update(orientable=1),
                  "surface kind: 'orientable' must be a JSON bool"),
    "iso side": (lambda doc: next(c for r in doc["regions"] for c in r["circuits"]
                                  if c["kind"] == "iso").update(side=False),
                 "transverse_map circuit: 'side' must be a JSON int"),
    "circuit kind": (lambda doc: doc["regions"][-1]["circuits"][0].update(kind="arc"),
                     "transverse_map: unknown circuit kind 'arc'"),
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_malformed_tables_keep_their_error_texts(docs, case):
    edit, text = LOAD_ERRORS[case]
    doc = copy.deepcopy(docs["map"])
    edit(doc)
    with pytest.raises(InputError) as ex:
        TransverseMap.from_json(doc)
    assert str(ex.value) == text


def _identity_rotation(doc):
    doc["rotation"] = {d: int(d) for d in doc["rotation"]}
    return doc


@pytest.mark.parametrize("argv", [["analyze", what] for what in ANALYZE]
                         + [["generate", "scramble", "--steps", "4",
                             "--out", "unused.json", "--in"]])
def test_invalid_map_is_rejected_on_entry(tmp_path, docs, argv):
    path = _write(tmp_path / "bad.json", _identity_rotation(copy.deepcopy(docs["map"])))
    rc, out = run_cli(argv + [path])
    assert rc == 1 and out["error"] == "input"
    assert out["problems"] and all(isinstance(p, str) for p in out["problems"])
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("argv", [["oracle"], ["analyze", "degree"]])
def test_cover_naming_an_edge_the_base_lacks_is_rejected(tmp_path, docs, argv):
    doc = copy.deepcopy(docs["cover"])
    doc["edge_perm"]["99"] = [2, 1]
    rc, out = run_cli(argv + [_write(tmp_path / "bad.json", doc)])
    assert rc == 1 and out["error"] == "input"
    assert "edge_perm names edge 99, which the base lacks" in out["detail"]


def _limit_address_space():
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))


@pytest.mark.parametrize("argv", [["oracle"], ["analyze", "validate"], ["analyze", "degree"]])
def test_cover_with_a_huge_sheet_count_is_rejected(tmp_path, docs, argv):
    """A sheet count no permutation of the document has is reported before
    anything of that size is built.  The CLI runs in a child process under
    a 1 GiB address-space limit, so a billion-sheet identity permutation
    would fail there with a MemoryError and no JSON."""
    doc = copy.deepcopy(docs["cover"])
    doc["d"] = 10 ** 9
    proc = subprocess.run([sys.executable, "-m", "surfmap.cli", *argv,
                           _write(tmp_path / "huge.json", doc)],
                          capture_output=True, text=True, preexec_fn=_limit_address_space)
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    # analyze validate reports an invalid cover in its own shape
    text = str(out["problems"]) if argv[-1] == "validate" else out["detail"]
    assert out.get("valid") is False or out["error"] == "input"
    assert "edge 0 has no valid sheet permutation" in text, out
    assert "d = 1000000000" in text, out


@pytest.mark.parametrize("what", ("degree", "kneser", "factorize"))
def test_tube_map_is_analyzed(tmp_path, what):
    """A tube joining two regions over one triangle of a branched double
    cover; the factorization once exited 2 on it."""
    path = tmp_path / "tube.json"
    path.write_text(tube_cover_map((0, 4)).dumps())
    rc, out = run_cli(["analyze", what, str(path)])
    assert rc == 0, out
    if what == "degree":
        assert out == {"degree": 2, "mod2": 0}


def test_tubes_without_room_in_the_cover_are_an_input_error(tmp_path):
    """A second tube over triangle 2 needs six transpositions in all, but
    the four triangles hold four."""
    path = tmp_path / "tubes.json"
    path.write_text(tube_cover_map((0, 4), (1, 5)).dumps())
    assert run_cli(["analyze", "validate", str(path)])[0] == 0
    rc, out = run_cli(["analyze", "degree", str(path)])
    assert rc == 1 and out["error"] == "input", out
    assert "tubes need" in out["detail"]


def test_contour_with_a_billion_handles_is_refused_before_any_fold(tmp_path):
    """A valid map whose pinch has 10**9 handles has a degree at once, but
    its contour would list one fold per handle: the fold count is read
    off the decomposition first, and a count above the bound is bad
    input."""
    tm = add_pinch(identity_map(builtin_triangulation("sphere_tetra")), 0,
                   SurfaceKind(True, handles=10 ** 9))
    path = tmp_path / "handles.json"
    path.write_text(tm.dumps())
    start = time.process_time()
    rc, out = run_cli(["analyze", "contours", str(path)])
    assert time.process_time() - start < 1.0
    assert rc == 1 and out["error"] == "input", out
    assert "1000000000 folds" in out["detail"]


def test_stuck_report_is_json(tmp_path, docs, monkeypatch):
    report = {"reason": "step budget exhausted", "state": {"normal": False}}

    def dead_end(tm, *args, **kwargs):
        raise Stuck(report)

    monkeypatch.setattr(moves, "normalize", dead_end)
    rc, out = run_cli(["analyze", "normalize", _write(tmp_path / "m.json", docs["map"])])
    assert rc == 3 and out["error"] == "stuck"
    assert out["report"] == report and "detail" in out


def test_internal_inconsistency_reports_its_move_and_problems(tmp_path, docs,
                                                              monkeypatch):
    """A failed post-move check exits 2 with the move's name and the first
    problems as fields of the JSON object."""
    def planted(tm):
        return ValidationReport(problems=["planted problem"])

    monkeypatch.setattr(moves, "validate_map", planted)
    rc, out = run_cli(["analyze", "normalize", _write(tmp_path / "m.json", docs["map"])])
    assert rc == 2 and out["error"] == "impossible"
    assert out["context"] in ("collapse_edge", "join_isolated_circle",
                              "boundary_surgery", "relocate_crosscap")
    assert out["problems"] == ["planted problem"]


# --------------------------------------------------------------------------
# Arguments: usage errors and unusable paths are input errors (exit 1)


def test_scramble_without_input_is_an_input_error(tmp_path):
    rc, out = run_cli(["generate", "scramble", "--out", str(tmp_path / "x.json")])
    assert rc == 1 and out["error"] == "input"


def test_scramble_checks_its_steps_before_it_loads_its_input(tmp_path, docs):
    """--steps out of range is refused before --in is read, also when the
    file is missing or invalid (the flag's error then wins); with steps in
    range, the file's own error is the one reported."""
    good = _write(tmp_path / "m.json", docs["map"])
    bad = _write(tmp_path / "bad.json", _identity_rotation(copy.deepcopy(docs["map"])))
    for path in (good, bad, str(tmp_path / "missing.json")):
        rc, out = run_cli(["generate", "scramble", "--in", path, "--steps", "65",
                           "--out", str(tmp_path / "x.json")])
        assert rc == 1 and out == {"error": "input",
                                   "detail": "--steps must be in 0..64"}
    rc, out = run_cli(["generate", "scramble", "--in", bad, "--steps", "4",
                       "--out", str(tmp_path / "x.json")])
    assert rc == 1 and out["problems"]
    assert not (tmp_path / "x.json").exists()


def test_non_integer_branch_is_an_input_error(tmp_path):
    rc, out = run_cli(["generate", "cover", "--d", "2", "--branch", "2,x",
                       "--out", str(tmp_path / "x.json")])
    assert rc == 1 and out["error"] == "input"


def test_bad_pinch_is_refused_before_a_cover_is_sampled(tmp_path, monkeypatch):
    sampled = []
    monkeypatch.setattr(covers, "random_cover", lambda *a, **k: sampled.append(a))
    rc, out = run_cli(["generate", "composite", "--base", "genus2", "--d", "8",
                       "--pinch", "sphere", "--out", str(tmp_path / "x.json")])
    assert rc == 1 and out == {
        "error": "input", "detail": "--pinch must be one of ['crosscaps3', "
                                    "'crosscaps4', 'genus2', 'klein', 'rp2', 'torus']"}
    assert sampled == [] and not (tmp_path / "x.json").exists()


def test_unwritable_out_is_an_input_error(tmp_path):
    rc, out = run_cli(["generate", "cover", "--out", str(tmp_path / "no" / "x.json")])
    assert rc == 1 and out["error"] == "input"


def test_unwritable_dot_is_an_input_error(tmp_path, docs):
    rc, out = run_cli(["analyze", "degree", _write(tmp_path / "m.json", docs["map"]),
                       "--dot", str(tmp_path / "no" / "x.dot")])
    assert rc == 1 and out["error"] == "input"


@pytest.mark.parametrize("argv", [[], ["analyze", "bogus", "x"],
                                  ["generate", "cover", "--d", "abc", "--out", "x"],
                                  ["generate", "cover"], ["oracle"]])
def test_usage_error_is_an_input_error(argv):
    rc, out = run_cli(argv)
    assert rc == 1 and out["error"] == "input"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as ex, contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
    assert ex.value.code == 0


def test_calls_in_one_process_share_one_parser(tmp_path):
    """main builds its parser once per process.  After a successful call,
    a usage error still exits 1 with a JSON input error and --help still
    exits 0, and the same call then gives the same answer."""
    argv = ["generate", "cover", "--base", "torus_7", "--d", "2", "--seed", "1",
            "--out", str(tmp_path / "cover.json")]
    first = run_cli(argv)
    assert first[0] == 0
    assert cli.build_parser() is cli.build_parser()
    rc, out = run_cli(["generate", "cover", "--d", "abc", "--out", "x"])
    assert rc == 1 and out["error"] == "input"
    with pytest.raises(SystemExit) as ex, contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
    assert ex.value.code == 0
    assert run_cli(argv) == first


# --------------------------------------------------------------------------
# Single-field corruption


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-2, 12), max_size=3),
    st.just({}), st.just([[0, 1], [1, 0]]), st.just({"0": 1}))

COMMANDS = {
    "map": (["analyze", "validate"], ["analyze", "degree"]),
    "cover": (["analyze", "validate"], ["oracle"], ["analyze", "degree"]),
    "triangulation": (["analyze", "validate"],
                      ["generate", "pinch", "--pinch", "torus", "--out", "{out}",
                       "--base-file"]),
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(sorted(COMMANDS)), pick=st.integers(0, 10 ** 6),
       value=JSON_VALUES, delete=st.booleans())
def test_single_field_corruption_never_escapes(tmp_path_factory, docs, kind, pick,
                                               value, delete):
    doc = copy.deepcopy(docs[kind])
    paths = list(_paths(doc))[1:]
    path = paths[pick % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    name = _write(tmp / "doc.json", doc)
    for argv in COMMANDS[kind]:
        argv = [a.replace("{out}", str(tmp / "out.json")) for a in argv]
        rc, out = run_cli(argv + [name])
        if rc == 0:
            continue
        assert rc in (1, 2), (path, out)
        if rc == 2:
            assert "parit" in out["detail"], (path, out)
        else:
            assert out.get("error") == "input" or out.get("valid") is False, (path, out)


def _sphere_map(*regions):
    """A map document onto sphere_tetra with no graph and closed sphere
    regions over the given triangles."""
    return TransverseMap(builtin_triangulation("sphere_tetra"), {}, {}, {}, {}, {}, {},
                         [transverse.Region(label, SurfaceKind(True))
                          for label in regions]).to_json()


@pytest.mark.parametrize("argv", [["analyze", what] for what in ANALYZE]
                         + [["generate", "scramble", "--steps", "3",
                             "--out", "unused.json", "--in"]])
@pytest.mark.parametrize("regions", [(), (0, 1)], ids=["empty", "two_spheres"])
def test_domain_that_is_not_one_surface_is_rejected_on_entry(tmp_path, argv, regions):
    """A map with no region, or with two closed ones, passes validate_map,
    but its domain is empty or disconnected: no map of closed surfaces."""
    doc = _sphere_map(*regions)
    assert transverse.validate_map(TransverseMap.from_json(doc)).ok
    argv = [str(tmp_path / a) if a == "unused.json" else a for a in argv]
    rc, out = run_cli(argv + [_write(tmp_path / "bad.json", doc)])
    assert rc == 1 and out["error"] == "input", out
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("regions,count", [((), 0), ((0, 1), 2)],
                         ids=["empty", "two_spheres"])
def test_validate_refuses_a_domain_that_is_not_one_surface(tmp_path, regions, count):
    """analyze validate gives the verdict the entry gives: a map whose
    domain is empty or disconnected is not valid, and the problem says
    how many components the domain has."""
    rc, out = run_cli(["analyze", "validate",
                       _write(tmp_path / "bad.json", _sphere_map(*regions))])
    assert rc == 1 and out["valid"] is False, out
    assert out["problems"] == [f"domain has {count} components"]


def _renamed(tri):
    """tri's document with each vertex v renamed to the string "v<v>"."""
    doc = tri.to_json()
    name = {v: f"v{v}" for v in doc["vertices"]}
    doc["vertices"] = [name[v] for v in doc["vertices"]]
    doc["edges"] = [[name[a], name[b]] for a, b in doc["edges"]]
    doc["rotations"] = {name[int(v)]: rot for v, rot in doc["rotations"].items()}
    return doc, name


@pytest.mark.parametrize("base", ["torus_7", "klein_8"])
def test_a_base_with_string_vertex_ids_maps_as_the_builtin_does(tmp_path, base):
    """A target whose vertex ids are strings: generated, scrambled and
    analyzed through --base-file, every command prints what it prints over
    the built-in, and the written vertex labels are the string ids."""
    doc, name = _renamed(builtin_triangulation(base))
    base_file = _write(tmp_path / "base.json", doc)
    outputs, written = {}, {}
    for key, source in (("builtin", ["--base", base]),
                        ("strings", ["--base-file", base_file])):
        composite, scrambled = tmp_path / f"{key}-c.json", tmp_path / f"{key}-s.json"
        runs = [["generate", "composite", *source, "--d", "2", "--seed", "3",
                 "--pinch", "torus", "--out", str(composite)],
                ["generate", "scramble", "--in", str(composite), "--steps", "8",
                 "--out", str(scrambled)],
                ["analyze", "degree", str(scrambled)],
                ["analyze", "kneser", str(scrambled)]]
        outputs[key] = []
        for argv in runs:
            rc, out = run_cli(argv)
            assert rc == 0, out
            out.pop("written", None)
            outputs[key].append(out)
        written[key] = [json.loads(p.read_text()) for p in (composite, scrambled)]
    assert outputs["strings"] == outputs["builtin"]
    assert outputs["strings"][2]["degree"] == 2
    assert outputs["strings"][3]["deficit"] == 2
    for plain, renamed in zip(written["builtin"], written["strings"]):
        assert renamed["vertex_label"] == {d: name[v]
                                           for d, v in plain["vertex_label"].items()}


# --------------------------------------------------------------------------
# Refusals of a document of the wrong type, a flag out of range and a
# malformed cover or base: each exits 1 with its own detail, writing nothing

DOC, OUT = "<doc>", "<out>"
REFUSED = {
    # case: (document, its corruption or None, argv, detail)
    "degree_of_a_triangulation": (
        "triangulation", None, ["analyze", "degree", DOC],
        "expected a transverse map or cover document"),
    "base_file_holding_a_cover": (
        "cover", None, ["generate", "cover", "--base-file", DOC, "--out", OUT],
        "--base-file must hold a triangulation"),
    "cover_of_nine_sheets": (
        None, None, ["generate", "cover", "--d", "9", "--out", OUT],
        "--d must be in 1..8"),
    "composite_of_no_sheet": (
        None, None, ["generate", "composite", "--d", "0", "--out", OUT],
        "--d must be in 1..8"),
    "unknown_pinch": (
        None, None, ["generate", "pinch", "--pinch", "bogus", "--out", OUT],
        "--pinch must be one of ['crosscaps3', 'crosscaps4', 'genus2', 'klein', "
        "'rp2', 'torus']"),
    "oracle_on_a_map": (
        "map", None, ["oracle", DOC], "oracle expects a cover document"),
    "edge_permutation_not_a_list": (
        "cover", lambda doc: doc["edge_perm"].update({"0": 5}),
        ["analyze", "validate", DOC], "cover edge permutation: expected a list, got 5"),
    "branch_not_a_dict": (
        "cover", lambda doc: doc.update(branch=[]), ["analyze", "validate", DOC],
        "cover: 'branch' must be a JSON dict"),
    "branch_on_an_unknown_triangle": (
        "cover", lambda doc: doc.update(branch={"99": [[1, 2]]}),
        ["analyze", "validate", DOC], "cover: bad branch entry for triangle 99"),
    "branch_cycles_not_a_list": (
        "cover", lambda doc: doc.update(branch={"0": "12"}),
        ["analyze", "validate", DOC], "cover: bad branch entry for triangle 0"),
    "branch_cycle_not_a_list": (
        "cover", lambda doc: doc.update(branch={"0": [5]}),
        ["analyze", "validate", DOC], "cover branch cycle: expected a list, got 5"),
    "base_rotation_at_an_unknown_vertex": (
        "triangulation", lambda doc: doc["rotations"].update(bogus=[0]),
        ["generate", "cover", "--base-file", DOC, "--d", "2", "--out", OUT],
        "triangulation: rotation at unknown vertex 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusal_names_what_it_refused(tmp_path, docs, case):
    kind, corrupt, argv, detail = REFUSED[case]
    paths = {OUT: str(tmp_path / "out.json")}
    if kind is not None:
        doc = copy.deepcopy(docs[kind])
        if corrupt is not None:
            corrupt(doc)
        paths[DOC] = _write(tmp_path / "doc.json", doc)
    rc, out = run_cli([paths.get(a, a) for a in argv])
    assert rc == 1 and out == {"error": "input", "detail": detail}
    assert not (tmp_path / "out.json").exists()


def test_cover_of_no_sheet_is_refused(tmp_path, docs):
    """A cover document with d = 0: `analyze validate` says invalid, and
    every other command refuses it on entry, with the same text."""
    path = _write(tmp_path / "cover.json", {**docs["cover"], "d": 0})
    rc, out = run_cli(["analyze", "validate", path])
    assert rc == 1 and out == {"valid": False,
                               "problems": ["sheet count must be positive"]}
    for argv in (["analyze", "degree", path], ["oracle", path]):
        assert run_cli(argv) == (1, {"error": "input",
                                     "detail": "sheet count must be positive"})
