"""Command-line front end.

analyze: run validation, normalization, factorization, degree, the
degree-Euler inequality, or contour synthesis on a map or cover file.
generate: deterministic corpus files (covers, pinched identities,
scrambles, composites).  oracle: compare the sheet-counting Euler
characteristic of a cover against its explicitly assembled total space.

Exit codes: 0 success, 1 bad input, 2 mathematically impossible outcome
(a bug signal), 3 normalization dead end.  Documents are shape-checked
when read and maps validated on entry, so bad input (a usage error, an
unreadable or unwritable path among it) is reported as a JSON error
object, never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import contours as contours_mod
from . import covers as covers_mod
from . import factorize as factorize_mod
from . import moves as moves_mod
from . import transverse as transverse_mod
from .errors import (Disconnected, ImpossibleError, InputError,
                     InternalInconsistency, InvalidMap, Stuck, SurfmapError)
from .surfaces import (BUILTIN_NAMES, SurfaceKind, Triangulation,
                       builtin_triangulation)

MAX_D = 8
MAX_SCRAMBLE = 64

PINCH_KINDS = {
    "torus": SurfaceKind(True, handles=1),
    "genus2": SurfaceKind(True, handles=2),
    "rp2": SurfaceKind(False, crosscaps=1),
    "klein": SurfaceKind(False, crosscaps=2),
    "crosscaps3": SurfaceKind(False, crosscaps=3),
    "crosscaps4": SurfaceKind(False, crosscaps=4),
}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise InputError(f"cannot write {path}: {ex}")


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def _load(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise InputError(f"cannot read {path}: {ex}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} does not hold a JSON object")
    kind = obj.get("type")
    if kind == "transverse_map":
        return transverse_mod.TransverseMap.from_json(obj)
    if kind == "cover":
        return covers_mod.MonodromyCover.from_json(obj)
    if kind == "triangulation":
        return Triangulation.from_json(obj)
    raise InputError(f"unrecognized document type {kind!r} in {path}")


def _as_map(doc):
    if isinstance(doc, transverse_mod.TransverseMap):
        return doc
    if isinstance(doc, covers_mod.MonodromyCover):
        return transverse_mod.map_from_cover(doc)
    raise InputError("expected a transverse map or cover document")


def _valid_map(doc):
    """The document's map, validated on entry.  An invalid map is bad
    input (exit 1), except that mixed preimage parity stays an impossible
    outcome (exit 2): no map of closed surfaces has it.  A valid map whose
    domain is not one surface, empty or disconnected, is bad input too
    (chi_domain raises Disconnected)."""
    tm = _as_map(doc)
    rep = transverse_mod.validate_map(tm)
    if not rep.ok:
        if tm.ribbon_facts().table_problem is None:
            transverse_mod.mod2_degree(tm)
        raise InvalidMap(rep.problems)
    transverse_mod.chi_domain(tm)
    return tm


def _base_triangulation(args) -> Triangulation:
    if getattr(args, "base_file", None):
        doc = _load(args.base_file)
        if not isinstance(doc, Triangulation):
            raise InputError("--base-file must hold a triangulation")
        problems = doc.validate()
        if problems:
            raise InputError(f"invalid triangulation in --base-file: {problems[:4]}")
        return doc
    return builtin_triangulation(args.base)


def _dot_output(tm, path: str) -> None:
    facts = tm.ribbon_facts()
    lines = ["graph preimage {"]
    for rep in facts.vertex_reps:
        lines.append(f'  v{rep} [label="v{rep}:{tm.vertex_label[rep]}"];')
    for k in tm.edge_keys():
        a, b = facts.vertex_of[k], facts.vertex_of[tm.pairing[k]]
        sign = "+" if tm.edge_sign[k] > 0 else "-"
        lines.append(f'  v{a} -- v{b} [label="e{tm.label_edge(k)}{sign}"];')
    for i, circle in enumerate(tm.isolated.values()):
        lines.append(f'  iso{i} [shape=doublecircle,label="e{circle.edge}"];')
    lines.append("}")
    lines.append("graph dual_image {")
    hit = sorted({tm.label_edge(k) for k in tm.edge_keys()}
                 | {c.edge for c in tm.isolated.values()})
    for e in hit:
        (t1, _), (t2, _) = tm.target.edge_sides(e)
        lines.append(f'  t{t1} -- t{t2} [label="e{e}"];')
    lines.append("}")
    _write_text(path, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    doc = _load(args.path)
    sub = args.what

    if sub == "validate":
        if isinstance(doc, (covers_mod.MonodromyCover, Triangulation)):
            problems = doc.validate()
            _emit({"valid": not problems, "problems": problems})
            return 0 if not problems else 1
        rep = transverse_mod.validate_map(doc)
        if rep.ok:
            try:
                transverse_mod.chi_domain(doc)
            except Disconnected as ex:
                rep.add(str(ex))
        classes = {f"{ri}:{pos}": {"variant": c.variant, "index": c.index,
                                   "direction": c.direction}
                   for (ri, pos), c in rep.circuit_classes.items()}
        _emit({"valid": rep.ok, "problems": rep.problems, "circuits": classes})
        return 0 if rep.ok else 1

    tm = _valid_map(doc)
    if args.dot:
        _dot_output(tm, args.dot)

    if sub == "normalize":
        norm, trace = moves_mod.normalize(tm)
        state = moves_mod.is_normal(norm)
        _emit({"normal": state, "trace": trace,
               "edge_count": transverse_mod.edge_count(norm),
               "map": norm.to_json()})
        return 0
    if sub == "factorize":
        norm, _trace = moves_mod.normalize(tm)
        decomp = factorize_mod.factorize(norm)
        _emit(decomp.to_json())
        return 0
    if sub == "degree":
        _emit({"degree": factorize_mod.geometric_degree(tm),
               "mod2": transverse_mod.mod2_degree(tm)})
        return 0
    if sub == "kneser":
        report = factorize_mod.verify_kneser(tm)
        _emit(report)
        return 0
    if sub == "contours":
        _d, decomp = factorize_mod.geometric_degree(tm, with_decomposition=True)
        contour = contours_mod.synthesize_contour(decomp)
        _emit(contour.to_json())
        return 0
    raise InputError(f"unknown analyze subcommand {sub!r}")


# --------------------------------------------------------------------------
# generate


def _parse_branch(text):
    if not text:
        return None
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"--branch must list integers, got {text!r}")


def cmd_generate(args) -> int:
    if args.kind == "cover":
        base = _base_triangulation(args)
        if not (1 <= args.d <= MAX_D):
            raise InputError(f"--d must be in 1..{MAX_D}")
        cover = covers_mod.random_cover(base, args.d, _parse_branch(args.branch),
                                        seed=args.seed)
        _write_json(args.out, cover.to_json())
        _emit({"written": args.out, "d": cover.d,
               "branch_indices": cover.branch_indices()})
        return 0

    if args.kind == "pinch":
        base = _base_triangulation(args)
        if args.pinch not in PINCH_KINDS:
            raise InputError(f"--pinch must be one of {sorted(PINCH_KINDS)}")
        tm = transverse_mod.identity_map(base)
        tm = transverse_mod.add_pinch(tm, args.region, PINCH_KINDS[args.pinch])
        _write_json(args.out, tm.to_json())
        _emit({"written": args.out,
               "chi_domain": transverse_mod.chi_domain(tm)})
        return 0

    if args.kind == "scramble":
        if not args.input:
            raise InputError("generate scramble needs --in")
        if not (0 <= args.steps <= MAX_SCRAMBLE):
            raise InputError(f"--steps must be in 0..{MAX_SCRAMBLE}")
        tm = _valid_map(_load(args.input))
        import random
        rng = random.Random(args.seed)
        for _ in range(args.steps):
            ri = rng.randrange(len(tm.regions))
            edges = tm.target.triangle_edges(tm.regions[ri].label)
            tm = moves_mod.insert_trivial_circle(tm, ri, rng.choice(edges))
        _write_json(args.out, tm.to_json())
        _emit({"written": args.out, "edge_count": transverse_mod.edge_count(tm)})
        return 0

    if args.kind == "composite":
        base = _base_triangulation(args)
        if not (1 <= args.d <= MAX_D):
            raise InputError(f"--d must be in 1..{MAX_D}")
        if args.pinch and args.pinch not in PINCH_KINDS:
            raise InputError(f"--pinch must be one of {sorted(PINCH_KINDS)}")
        cover = covers_mod.random_cover(base, args.d, _parse_branch(args.branch),
                                        seed=args.seed)
        tm = transverse_mod.map_from_cover(cover)
        if args.pinch:
            tm = transverse_mod.add_pinch(tm, args.region, PINCH_KINDS[args.pinch])
        _write_json(args.out, tm.to_json())
        _emit({"written": args.out,
               "chi_domain": transverse_mod.chi_domain(tm),
               "edge_count": transverse_mod.edge_count(tm)})
        return 0
    raise InputError(f"unknown generate kind {args.kind!r}")


# --------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    doc = _load(args.path)
    if not isinstance(doc, covers_mod.MonodromyCover):
        raise InputError("oracle expects a cover document")
    formula = covers_mod.cover_chi(doc)
    total = covers_mod.assemble_total_space(doc)
    assembled = total.euler
    verdict = formula == assembled
    _emit({"cover_chi": formula, "assembled_chi": assembled, "equal": verdict,
           "assembled_valid": not total.validate()})
    if not verdict:
        raise ImpossibleError("sheet-count formula disagrees with assembly")
    return 0


# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1 with a JSON error), not
    argparse's exit 2, which the exit codes reserve for impossible
    outcomes.  The usage line still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main is called over
    and over in one process (by a test suite, or a benchmark of single
    calls), and parse_args leaves the parser as it was, so every call
    shares it."""
    p = _Parser(
        prog="surfmap",
        description="Combinatorial surface maps: normalization, "
                    "factorization, degree, and exact inequality checks.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a map or cover file")
    pa.add_argument("what", choices=["validate", "normalize", "factorize",
                                     "degree", "kneser", "contours"])
    pa.add_argument("path")
    pa.add_argument("--dot", help="write the preimage graph and dual image "
                                  "as DOT to this file")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="write deterministic corpus files")
    pg.add_argument("kind", choices=["cover", "pinch", "scramble", "composite"])
    pg.add_argument("--base", default="sphere_tetra", choices=list(BUILTIN_NAMES))
    pg.add_argument("--base-file", dest="base_file")
    pg.add_argument("--d", type=int, default=1)
    pg.add_argument("--branch", default="")
    pg.add_argument("--pinch", default="",
                    help="closed summand to pinch in (e.g. torus, rp2, klein)")
    pg.add_argument("--region", type=int, default=0)
    pg.add_argument("--in", dest="input")
    pg.add_argument("--steps", type=int, default=0)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_generate)

    po = sub.add_parser("oracle", help="compare cover arithmetic against "
                                       "explicit assembly")
    po.add_argument("path")
    po.set_defaults(func=cmd_oracle)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Stuck as ex:
        _emit({"error": "stuck", "detail": str(ex), "report": ex.report})
        return 3
    except ImpossibleError as ex:
        out = {"error": "impossible", "detail": str(ex)}
        if isinstance(ex, InternalInconsistency):
            out.update((key, value) for key, value in (("context", ex.context),
                                                       ("problems", ex.problems))
                       if value is not None)
        _emit(out)
        return 2
    except InputError as ex:
        out = {"error": "input", "detail": str(ex)}
        if isinstance(ex, InvalidMap):
            out["problems"] = ex.problems
        _emit(out)
        return 1
    except SurfmapError as ex:
        _emit({"error": "input", "detail": str(ex)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
