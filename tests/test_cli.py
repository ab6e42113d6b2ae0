import json
import subprocess
import sys

import pytest

from surfmap.surfaces import Triangulation, builtin_triangulation, derive_rotations

from helpers import with_rotations_reversed

PY = [sys.executable, "-m", "surfmap.cli"]


def run(*args, cwd=None):
    proc = subprocess.run(PY + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_and_degree(tmp_path):
    out = tmp_path / "id.json"
    rc, stdout, _ = run("generate", "composite", "--base", "sphere_tetra",
                        "--d", "1", "--seed", "0", "--out", str(out))
    assert rc == 0
    rc, stdout, _ = run("analyze", "degree", str(out))
    assert rc == 0
    assert json.loads(stdout) == {"degree": 1, "mod2": 1}


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc, _, _ = run("generate", "cover", "--base", "torus_7", "--d", "2",
                       "--seed", "1", "--out", str(out))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_generated_files_validate(tmp_path):
    cov = tmp_path / "cov.json"
    run("generate", "cover", "--base", "rp2_6", "--d", "2", "--seed", "4",
        "--out", str(cov))
    rc, stdout, _ = run("analyze", "validate", str(cov))
    assert rc == 0 and json.loads(stdout)["valid"]

    pinch = tmp_path / "p.json"
    run("generate", "pinch", "--base", "sphere_tetra", "--pinch", "rp2",
        "--out", str(pinch))
    rc, stdout, _ = run("analyze", "validate", str(pinch))
    assert rc == 0 and json.loads(stdout)["valid"]


def test_scramble_edge_count(tmp_path):
    base = tmp_path / "id.json"
    run("generate", "composite", "--base", "sphere_tetra", "--d", "1",
        "--seed", "0", "--out", str(base))
    scr = tmp_path / "scr.json"
    rc, stdout, _ = run("generate", "scramble", "--in", str(base),
                        "--steps", "10", "--seed", "3", "--out", str(scr))
    assert rc == 0
    assert json.loads(stdout)["edge_count"] == 16
    rc, stdout, _ = run("analyze", "normalize", str(scr))
    assert rc == 0
    assert json.loads(stdout)["edge_count"] == 6


def test_factorize_a_graph_like_map(tmp_path):
    """A double cover of the sphere branched over two points, pinched with
    RP^2, normalizes to three isolated circles and no vertex: a graph-like
    map, whose decomposition lists the dual edges its circles cross and
    the triangles its regions lie over."""
    out = tmp_path / "graph_like.json"
    rc, stdout, _ = run("generate", "composite", "--base", "sphere_tetra", "--d", "2",
                        "--branch", "2,2", "--seed", "1", "--pinch", "rp2",
                        "--out", str(out))
    assert rc == 0 and json.loads(stdout)["chi_domain"] == 1
    rc, stdout, _ = run("analyze", "normalize", str(out))
    normal = json.loads(stdout)
    assert rc == 0 and normal["normal"]["graph_like"]
    assert (normal["map"]["pairing"], len(normal["map"]["isolated"])) == ({}, 3)
    rc, stdout, _ = run("analyze", "factorize", str(out))
    assert rc == 0
    assert stdout == ('{"image": {"dual_edges_hit": [2, 4, 5], "triangles_hit": '
                      '[0, 1, 2, 3]}, "type": "decomposition", "variant": "graph_like"}\n')


def test_kneser_report(tmp_path):
    pinch = tmp_path / "rp2_pinch.json"
    run("generate", "pinch", "--base", "sphere_tetra", "--pinch", "rp2",
        "--out", str(pinch))
    rc, stdout, _ = run("analyze", "kneser", str(pinch))
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["holds"] is True and rep["deficit"] == 1


def test_contours_via_cli(tmp_path):
    cov = tmp_path / "d3.json"
    run("generate", "composite", "--base", "sphere_tetra", "--d", "3",
        "--branch", "3,3", "--seed", "7", "--out", str(cov))
    rc, stdout, _ = run("analyze", "contours", str(cov))
    assert rc == 0
    rep = json.loads(stdout)
    assert [f["cusps"] for f in rep["folds"]] == [5, 5]
    assert rep["nodes"] == 0


def test_oracle(tmp_path):
    cov = tmp_path / "cov.json"
    run("generate", "cover", "--base", "genus2", "--d", "2", "--seed", "3",
        "--out", str(cov))
    rc, stdout, _ = run("oracle", str(cov))
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["equal"] and rep["cover_chi"] == -4


def test_exit_code_bad_input(tmp_path):
    rc, stdout, _ = run("analyze", "degree", str(tmp_path / "missing.json"))
    assert rc == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"type\": \"mystery\"}")
    rc, _, _ = run("analyze", "degree", str(bad))
    assert rc == 1


def test_exit_code_impossible(tmp_path):
    # doctor a map whose preimage counts have mixed parity: an impossible
    # model state, reported as a bug-class failure (exit 2)
    base = tmp_path / "id.json"
    run("generate", "composite", "--base", "sphere_tetra", "--d", "1",
        "--seed", "0", "--out", str(base))
    doc = json.loads(base.read_text())
    target_vertices = doc["target"]["vertices"]
    victim = None
    for d, v in doc["vertex_label"].items():
        if victim is None:
            victim = v
        if v == victim:
            doc["vertex_label"][d] = [x for x in target_vertices if x != victim][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    rc, stdout, _ = run("analyze", "degree", str(broken))
    assert rc == 2


def test_dot_emission(tmp_path):
    base = tmp_path / "id.json"
    run("generate", "composite", "--base", "sphere_tetra", "--d", "1",
        "--seed", "0", "--out", str(base))
    dot = tmp_path / "graph.dot"
    rc, _, _ = run("analyze", "degree", str(base), "--dot", str(dot))
    assert rc == 0
    text = dot.read_text()
    assert "graph preimage {" in text and "graph dual_image {" in text


def test_invalid_map_exits_one(tmp_path):
    base = tmp_path / "id.json"
    run("generate", "composite", "--base", "sphere_tetra", "--d", "1",
        "--seed", "0", "--out", str(base))
    doc = json.loads(base.read_text())
    doc["regions"][0]["label"] = (doc["regions"][0]["label"] + 2) % 4
    bad = tmp_path / "bad_region.json"
    bad.write_text(json.dumps(doc))
    rc, stdout, _ = run("analyze", "validate", str(bad))
    assert rc == 1
    assert json.loads(stdout)["valid"] is False


def test_loop_edge_triangulation_rejected(tmp_path):
    import json as _json
    from surfmap.surfaces import builtin_triangulation
    tri = builtin_triangulation("sphere_tetra").to_json()
    tri["edges"][0] = [0, 0]
    path = tmp_path / "loop.json"
    path.write_text(_json.dumps(tri))
    rc, stdout, _ = run("analyze", "validate", str(path))
    assert rc == 1
    rep = _json.loads(stdout)
    assert not rep["valid"] and any("loop edge" in p for p in rep["problems"])


def test_composite_over_two_triangles_on_the_same_three_edges(tmp_path):
    """A sphere of two triangles sharing all three edges: every corner fits
    both triangles, and a disk region takes the triangle of the sector at
    its circuit's first corner, which is one of the two."""
    V, E = [0, 1, 2], [(0, 1), (1, 2), (0, 2)]
    T = [[(0, 1), (1, 1), (2, -1)], [(2, 1), (1, -1), (0, -1)]]
    base = tmp_path / "base.json"
    base.write_text(derive_rotations(Triangulation(V, E, T)).dumps())
    for d, branch in ((1, []), (2, ["--branch", "2,2"]), (3, ["--branch", "3,3"])):
        out = tmp_path / f"d{d}.json"
        rc, stdout, _ = run("generate", "composite", "--base-file", str(base),
                            "--d", str(d), *branch, "--seed", "1", "--out", str(out))
        assert rc == 0, stdout
        rc, stdout, _ = run("analyze", "degree", str(out))
        assert rc == 0 and json.loads(stdout)["degree"] == d
        rc, stdout, _ = run("analyze", "kneser", str(out))
        assert rc == 0 and json.loads(stdout)["holds"] is True


@pytest.mark.parametrize("name, pinch", [("torus_7", "torus"), ("klein_8", "rp2")])
def test_pinch_over_a_base_with_reversed_rotations(tmp_path, name, pinch):
    """identity_map is the one-sheeted lift, which turns each vertex the way
    its least triangle's corner runs.  Where a base's rotation runs the
    other way, the written map's rotations, band signs and regions change
    with it (a gauge change, so the documents are not compared); its
    degree and Kneser report stay those over the unturned base."""
    tri = builtin_triangulation(name)
    bases = {"plain": tri, "turned": with_rotations_reversed(tri, tri.vertices[::2])}
    reports = {}
    for key, base in bases.items():
        base_path, out = tmp_path / f"{key}-base.json", tmp_path / f"{key}.json"
        base_path.write_text(base.dumps())
        rc, stdout, _ = run("generate", "pinch", "--base-file", str(base_path),
                            "--pinch", pinch, "--out", str(out))
        assert rc == 0, stdout
        rc, stdout, _ = run("analyze", "degree", str(out))
        assert rc == 0 and json.loads(stdout)["degree"] == 1, stdout
        rc, reports[key], _ = run("analyze", "kneser", str(out))
        assert rc == 0, reports[key]
    assert reports["turned"] == reports["plain"]
