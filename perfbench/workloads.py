"""Workload catalogs, operations and the per-operation correctness gate.

Each workload has a fixed catalog of operation specs, built here from
constants and never from the test suite.  A run's seed only orders the
catalog: every pass visits every entry once, in a seeded permutation.
Per-operation cost is heavy-tailed (it grows with the map's edge count,
and `random_cover` is a rejection sampler whose tries per cover are
geometric), so a seeded *sample* of the spec space would make two runs
do different amounts of work.  Visiting the whole catalog per pass keeps
the work identical across seeds, and the stored answer records in
`answers.json` cover every entry.

Every operation returns an answer dict.  `check_*` returns the list of
problems with it: the independent identities first, then a comparison
with the stored record on fields that do not depend on how maps are
stored (degree, mod-2 degree, chi(M), deficit, branch indices, pinch
kinds, exit codes).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from surfmap import cli, covers, factorize, moves, surfaces, transverse
from surfmap.errors import Unsatisfiable

BRANCH_CHOICES = (None, (2, 2), (3, 3), (2, 2, 2, 2), (4, 4), (3, 2, 2, 3))
PINCHES = (None, "torus", "rp2", "klein", "genus2", "crosscaps3", "crosscaps4")
CORPUS_BASES = ("sphere_tetra", "rp2_6", "torus_7", "genus2")     # chi 2, 1, 0, -2
ALL_BASES = ("sphere_tetra", "rp2_6", "torus_7", "klein_8", "genus2")
# Catalog construction only; the run seed never reaches these.
_CATALOG_SEED = 20240
WORKLOADS = ("corpus", "covers", "bounds")


def refused(base: str, d: int, branch) -> bool:
    """True when no connected cover with these branch lengths exists, so
    `random_cover` must refuse the spec before sampling: odd branching
    defect, odd total Euler characteristic, or one above 2."""
    lengths = branch or ()
    if any(ln < 2 or ln > d for ln in lengths):
        return True
    defect = sum(ln - 1 for ln in lengths)
    chi = d * surfaces.builtin_triangulation(base).euler - defect
    return defect % 2 == 1 or chi % 2 == 1 or chi > 2


def _branch_arg(branch):
    return list(branch) if branch else None


def _key(*parts) -> str:
    return "/".join("-" if p is None else
                    ",".join(map(str, p)) if isinstance(p, tuple) else str(p)
                    for p in parts)


# --------------------------------------------------------------------------
# corpus: cover -> map -> pinch -> scramble -> normalize -> factorize


def corpus_catalog():
    """Two maps per (base, d <= 4, branch) cell that admits a cover.  Pinch
    kinds and scramble lengths 0..20 rotate through the entries, so every
    kind and length range appears; cover and scramble seeds come from a
    fixed catalog generator."""
    rng = random.Random(_CATALOG_SEED)
    out = []
    for base in CORPUS_BASES:
        for d in (1, 2, 3, 4):
            for branch in BRANCH_CHOICES:
                if refused(base, d, branch):
                    continue
                for _rep in range(2):
                    i = len(out)
                    pinch = PINCHES[i % len(PINCHES)]
                    out.append({
                        "key": _key("corpus", base, d, branch, pinch, i),
                        "base": base, "d": d, "branch": branch, "pinch": pinch,
                        "cover_seed": rng.randrange(10 ** 6),
                        "region_pick": rng.randrange(10 ** 6),
                        "steps": (8 * i) % 21,
                        "scramble_seed": rng.randrange(10 ** 6),
                    })
    return out


def corpus_op(spec) -> dict:
    tri = surfaces.builtin_triangulation(spec["base"])
    cover = covers.random_cover(tri, spec["d"], _branch_arg(spec["branch"]),
                                seed=spec["cover_seed"])
    tm = transverse.map_from_cover(cover)
    if spec["pinch"]:
        tm = transverse.add_pinch(tm, spec["region_pick"] % len(tm.regions),
                                  cli.PINCH_KINDS[spec["pinch"]])
    rng = random.Random(spec["scramble_seed"])
    for _ in range(spec["steps"]):
        ri = rng.randrange(len(tm.regions))
        edges = tm.target.triangle_edges(tm.regions[ri].label)
        tm = moves.insert_trivial_circle(tm, ri, rng.choice(edges))
    chi_m = transverse.chi_domain(tm)
    mod2 = transverse.mod2_degree(tm)
    norm, _trace = moves.normalize(tm)
    dec = factorize.factorize(norm)
    graph_like = dec.variant == "graph_like"
    return {
        "degree": 0 if graph_like else dec.d,
        "mod2": mod2,
        "chi_m": chi_m,
        "chi_n": tri.euler,
        "deficit": None if graph_like else dec.kneser_deficit,
        "branch": [] if graph_like else sorted(dec.branch_indices),
        "pinches": [] if graph_like else sorted(p.kind.name() for p in dec.pinches),
        "pinch_defect": 0 if graph_like else sum(1 - p.collapsed_chi
                                                 for p in dec.pinches),
    }


def check_corpus(spec, ans) -> list:
    problems = []
    deg, chi_m, chi_n = ans["degree"], ans["chi_m"], ans["chi_n"]
    if deg % 2 != ans["mod2"]:
        problems.append(f"degree {deg} disagrees with mod-2 degree {ans['mod2']}")
    if deg > 0:
        if not chi_m <= deg * chi_n:
            problems.append(f"chi(M)={chi_m} > d*chi(N)={deg * chi_n}")
        identity = sum(i - 1 for i in ans["branch"]) + ans["pinch_defect"]
        if not ans["deficit"] == deg * chi_n - chi_m == identity:
            problems.append(f"deficit identity fails: {ans['deficit']}, "
                            f"{deg * chi_n - chi_m}, {identity}")
    return problems


# --------------------------------------------------------------------------
# covers: random_cover, then the assembly oracle


def covers_catalog():
    """Every (base, d <= 6, branch) cell over all five bases, twice with
    different cover seeds.  Cells that must be refused stay in: they are
    not operations, and the traced run counts them."""
    rng = random.Random(_CATALOG_SEED + 1)
    out = []
    for base in ALL_BASES:
        for d in range(1, 7):
            for branch in BRANCH_CHOICES:
                if branch and max(branch) > d:
                    continue
                for rep in range(2):
                    seed = rng.randrange(10 ** 6)
                    out.append({"key": _key("covers", base, d, branch, seed),
                                "base": base, "d": d, "branch": branch,
                                "cover_seed": seed,
                                "refused": refused(base, d, branch)})
    return out


def covers_op(spec):
    """Returns None for a spec the sampler refused as predicted."""
    tri = surfaces.builtin_triangulation(spec["base"])
    try:
        # no max_tries: the sampler's default is the CLI's budget
        cover = covers.random_cover(tri, spec["d"], _branch_arg(spec["branch"]),
                                    seed=spec["cover_seed"])
    except Unsatisfiable:
        if spec["refused"]:
            return None
        raise
    total = covers.assemble_total_space(cover)
    return {
        "branch": cover.branch_indices(),
        "chi": covers.cover_chi(cover),
        "assembled_chi": total.euler,
        "assembled_valid": not total.validate(),
        "expected_chi": spec["d"] * tri.euler - sum(i - 1 for i in spec["branch"] or ()),
    }


def check_covers(spec, ans) -> list:
    problems = []
    if spec["refused"]:
        problems.append("sampler accepted a spec that admits no connected cover")
    if ans["chi"] != ans["assembled_chi"]:
        problems.append(f"cover_chi {ans['chi']} != assembled {ans['assembled_chi']}")
    if not ans["assembled_valid"]:
        problems.append("assembled total space does not validate")
    if ans["chi"] != ans["expected_chi"]:
        problems.append(f"cover_chi {ans['chi']} != d*chi(N) - defect "
                        f"{ans['expected_chi']}")
    if ans["branch"] != sorted(spec["branch"] or ()):
        problems.append(f"branch indices {ans['branch']} != spec {spec['branch']}")
    return problems


# --------------------------------------------------------------------------
# bounds: single CLI calls on maps at the CLI's size bounds


BOUNDS_MAPS = (
    # (base, d, branch, pinch).  Three sizes, so that the median latency
    # falls inside the middle map's operations rather than in a gap.  All
    # at d = 6: at d = 7 and 8 one random_cover costs from 0.02 s to over
    # 30 s of sampling depending on its seed, which would swamp set-up.
    ("klein_8", 6, None, "rp2"),
    ("torus_7", 6, (3, 3), "genus2"),
    ("genus2", 6, (2, 2), "torus"),
)
BOUNDS_KINDS = ("scramble", "degree", "kneser", "factorize", "normalize")
SCRAMBLE_STEPS = 64


def bounds_maps():
    rng = random.Random(_CATALOG_SEED + 2)
    out = []
    for i, (base, d, branch, pinch) in enumerate(BOUNDS_MAPS):
        out.append({"name": f"m{i}", "base": base, "d": d, "branch": branch,
                    "pinch": pinch, "cover_seed": rng.randrange(10 ** 6),
                    "region": rng.randrange(8),
                    "scramble_seed": rng.randrange(10 ** 6)})
    return out


def bounds_catalog():
    return [{"key": _key("bounds", m["base"], m["d"], m["branch"], m["pinch"],
                         m["cover_seed"], kind),
             "map": m, "kind": kind}
            for m in bounds_maps() for kind in BOUNDS_KINDS]


def run_cli(argv):
    """One in-process CLI call: (exit code, parsed stdout document)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue().strip()
    return code, (json.loads(text) if text else None)


def _paths(workdir, m):
    base = os.path.join(workdir, m["name"])
    return base + "-composite.json", base + "-scrambled.json", base + "-out.json"


def bounds_setup(workdir) -> dict:
    """Write every catalog map with `generate composite`, then its 64-step
    scramble, through the CLI.  Returns per-map facts the gate needs."""
    facts = {}
    for m in bounds_maps():
        composite, scrambled, _out = _paths(workdir, m)
        argv = ["generate", "composite", "--base", m["base"], "--d", str(m["d"]),
                "--branch", ",".join(map(str, m["branch"] or ())),
                "--pinch", m["pinch"], "--region", str(m["region"]),
                "--seed", str(m["cover_seed"]), "--out", composite]
        code, doc = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up {argv} exited {code}: {doc}")
        code, scr = run_cli(["generate", "scramble", "--in", composite,
                             "--steps", str(SCRAMBLE_STEPS),
                             "--seed", str(m["scramble_seed"]), "--out", scrambled])
        if code != 0:
            raise RuntimeError(f"set-up scramble of {m['name']} exited {code}: {scr}")
        facts[m["name"]] = {"chi_m": doc["chi_domain"], "edges": doc["edge_count"],
                            "scrambled_edges": scr["edge_count"],
                            "chi_n": surfaces.builtin_triangulation(m["base"]).euler}
    return facts


def bounds_op(spec, workdir) -> dict:
    m, kind = spec["map"], spec["kind"]
    composite, scrambled, out = _paths(workdir, m)
    if kind == "scramble":
        argv = ["generate", "scramble", "--in", composite,
                "--steps", str(SCRAMBLE_STEPS), "--seed", str(m["scramble_seed"]),
                "--out", out]
    else:
        argv = ["analyze", kind, scrambled]
    code, doc = run_cli(argv)
    ans = {"exit": code}
    if code != 0:
        ans["error"] = doc
        return ans
    if kind == "scramble":
        ans["edge_count"] = doc["edge_count"]
    elif kind == "degree":
        ans.update(degree=doc["degree"], mod2=doc["mod2"])
    elif kind == "kneser":
        ans.update({k: doc[k] for k in ("chi_M", "chi_N", "d", "deficit", "holds",
                                        "branch_defect", "pinch_defect")})
    elif kind == "factorize":
        ans.update(d=doc["d"], deficit=doc["kneser_deficit"],
                   branch=sorted(doc["branch_indices"]),
                   pinches=sorted(surfaces.SurfaceKind.from_json(p["kind"]).name()
                                  for p in doc["pinches"]))
    elif kind == "normalize":
        ans.update(normal=doc["normal"]["normal"], edge_count=doc["edge_count"])
    return ans


def check_bounds(spec, ans, facts) -> list:
    m, kind = spec["map"], spec["kind"]
    f = facts[m["name"]]
    if ans["exit"] != 0:
        return [f"exit code {ans['exit']}, expected 0: {ans.get('error')}"]
    problems = []
    if kind == "scramble" and ans["edge_count"] != f["edges"] + SCRAMBLE_STEPS:
        problems.append(f"scramble gave {ans['edge_count']} edges, expected "
                        f"{f['edges'] + SCRAMBLE_STEPS}")
    if kind == "degree" and not ans["degree"] % 2 == ans["mod2"] == m["d"] % 2:
        problems.append(f"degree {ans['degree']}, mod-2 degree {ans['mod2']}, "
                        f"cover degree {m['d']} disagree mod 2")
    if kind == "kneser":
        d, chi_m, chi_n = ans["d"], ans["chi_M"], ans["chi_N"]
        if not (ans["holds"] and chi_m <= d * chi_n):
            problems.append("degree inequality does not hold")
        if (chi_m, chi_n) != (f["chi_m"], f["chi_n"]):
            problems.append(f"chi(M), chi(N) = {chi_m}, {chi_n}; generated "
                            f"{f['chi_m']}, {f['chi_n']}")
        if not (ans["deficit"] == d * chi_n - chi_m
                == ans["branch_defect"] + ans["pinch_defect"]):
            problems.append("deficit identity fails")
    if kind == "factorize" and ans["deficit"] != ans["d"] * f["chi_n"] - f["chi_m"]:
        problems.append(f"factorize deficit {ans['deficit']} != "
                        f"{ans['d']}*{f['chi_n']} - {f['chi_m']}")
    if kind == "normalize" and not (ans["normal"]
                                    and ans["edge_count"] < f["scrambled_edges"]):
        problems.append("normalize did not reach a smaller normal form")
    return problems


# --------------------------------------------------------------------------
# Stored answers


ANSWER_FIELDS = {
    "corpus": ("degree", "mod2", "chi_m", "deficit", "branch", "pinches"),
    "covers": ("branch", "chi"),
    "bounds": ("exit", "edge_count", "degree", "mod2", "chi_M", "d", "deficit",
               "branch", "pinches", "normal"),
}


def answer_record(workload, ans) -> dict:
    return {k: ans[k] for k in ANSWER_FIELDS[workload] if k in ans}


def compare_record(stored, workload, ans) -> list:
    if stored is None:
        return ["no stored answer record for this operation"]
    got = answer_record(workload, ans)
    return [f"{k}: got {got.get(k)!r}, stored {stored.get(k)!r}"
            for k in sorted(set(stored) | set(got)) if stored.get(k) != got.get(k)]


def catalog(workload):
    return {"corpus": corpus_catalog, "covers": covers_catalog,
            "bounds": bounds_catalog}[workload]()
