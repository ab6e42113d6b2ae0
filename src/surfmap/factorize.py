"""Factor a normal-form map into a pinch followed by a branched covering.

Every region of a normal form is read off as branched-covering data: each
essential boundary circuit of index i becomes an i-sheeted disk (one
interior branch point when i >= 2), the handles or crosscaps of a region
become a pinched piece, and consecutive disks of a multi-circuit region
are joined by tubes, each carrying two extra index-2 branch points.  Edge
permutations come from strand adjacency of the preimage graph, so the
emitted monodromy data can be validated and assembled independently of
the arithmetic that predicted its Euler characteristic.

A tube's two points are placed by construction (_place_tube), with no
validation inside; as cycles in one triangle are disjoint, tubes needing
more transpositions than the triangles' free sheets hold are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .covers import (MonodromyCover, cover_chi, cover_components,
                     cover_connected, perm_inv, perm_mul)
from .errors import (Branched, GraphLike, ImpossibleError, InputError,
                     InconsistentSheets, InternalInconsistency, NotNormal,
                     Unsatisfiable, ZeroDegree)
from .surfaces import SurfaceKind
from .transverse import (IsolatedCircle, Region, TransverseMap, checked_tiling,
                         chi_domain, domain_orientable, mod2_degree, signed_degree)
from .moves import is_normal, normalize
from . import covers as covers_mod


@dataclass(frozen=True)
class PinchPiece:
    region_label: int
    kind: SurfaceKind          # the closed surface collapsed (minus a disk)

    @property
    def collapsed_chi(self) -> int:
        """Euler characteristic of the collapsed piece (closed kind minus
        a disk); never 1, since a collapsed disk would be no pinch."""
        return self.kind.euler - 1

    def to_json(self) -> dict:
        return {"region_label": self.region_label, "kind": self.kind.to_json()}


@dataclass
class Decomposition:
    variant: str               # "graph_like" | "pinched_cover"
    cover: MonodromyCover = None
    pinches: list = field(default_factory=list)
    d: int = 0
    branch_indices: list = field(default_factory=list)
    kneser_deficit: int = 0
    image: dict = field(default_factory=dict)    # graph_like payload

    def to_json(self) -> dict:
        if self.variant == "graph_like":
            return {"type": "decomposition", "variant": "graph_like",
                    "image": self.image}
        return {
            "type": "decomposition",
            "variant": "pinched_cover",
            "d": self.d,
            "branch_indices": list(self.branch_indices),
            "pinches": [p.to_json() for p in self.pinches],
            "kneser_deficit": self.kneser_deficit,
            "cover": self.cover.to_json(),
        }


# --------------------------------------------------------------------------
# Sheet bookkeeping of a normal form


class _SheetTable:
    """Sheet numbering over each triangle: one sheet per winding of each
    essential circuit of each region labeled by that triangle."""

    def __init__(self, tm: TransverseMap):
        self.tm = tm
        self.by_triangle = {t: [] for t in range(len(tm.target.triangles))}
        self.sheet_no = {}          # (region, circuit pos, winding) -> sheet
        self.indices = {}           # (region, circuit pos) -> (index, direction)
        facts = tm.ribbon_facts()
        for ri, region in enumerate(tm.regions):
            for pos, cls in enumerate(facts.checks_of(region).classes(facts)):
                if cls.variant != "essential":
                    raise NotNormal("non-essential circuit in a normal form")
                self.indices[(ri, pos)] = (cls.index, cls.direction)
                for w in range(1, cls.index + 1):
                    sheets = self.by_triangle[region.label]
                    self.sheet_no[(ri, pos, w)] = len(sheets) + 1
                    sheets.append((ri, pos, w))
        counts = {len(v) for v in self.by_triangle.values()}
        if len(counts) != 1:
            raise InconsistentSheets(
                f"sheet counts differ across triangles: "
                f"{sorted((t, len(v)) for t, v in self.by_triangle.items())}")
        self.d = counts.pop()

    def crossing_windings(self, ri: int, pos: int):
        """token -> winding for the band-side tokens of this circuit,
        with windings advancing at the triangle's seam corner."""
        tm = self.tm
        region = tm.regions[ri]
        circuit = region.circuits[pos]
        index, direction = self.indices[(ri, pos)]
        walk = tm.target.triangles[region.label]
        seam_from, seam_to = walk[2][0], walk[0][0]
        seq = circuit.seq
        n = len(seq)
        word = [tm.label_edge(seq[i][0]) for i in range(0, n, 2)]
        k = len(word)
        w = 1
        out = {}
        for j in range(k):
            prev_e = word[(j - 1) % k]
            cur_e = word[j]
            if (prev_e, cur_e) == (seam_from, seam_to):
                w = w % index + 1
            elif (prev_e, cur_e) == (seam_to, seam_from):
                w = (w - 2) % index + 1
            out[seq[2 * j]] = w
            out[seq[2 * j + 1]] = w
        # each target edge must see every winding exactly once
        check = {}
        for j in range(k):
            check.setdefault(word[j], []).append(out[seq[2 * j]])
        for e, ws in check.items():
            if sorted(ws) != list(range(1, index + 1)):
                raise InternalInconsistency("winding enumeration is not seam-coherent")
        return out


def _assemble_cover(tm: TransverseMap, table: _SheetTable) -> tuple:
    """Edge permutations from strand adjacency plus disk branch cycles."""
    T = tm.target
    d = table.d
    winding_of = {}
    for (ri, pos), _ in table.indices.items():
        winding_of.update({tok: (ri, pos, w) for tok, w
                           in table.crossing_windings(ri, pos).items()})

    keys_over = {}          # target edge -> edge keys mapping onto it
    for k in tm.edge_keys():
        keys_over.setdefault(tm.label_edge(k), []).append(k)

    sigma = {}
    for e in range(len(T.edges)):
        t1, _t2 = (s[0] for s in T.edge_sides(e))
        perm = [None] * d
        for k in keys_over.get(e, ()):
            sides = {}
            for x in (0, 1):
                tok = (k, x)
                ri, pos, w = winding_of[tok]
                sides[tm.regions[ri].label] = table.sheet_no[(ri, pos, w)]
            if set(sides) != {t1, _t2}:
                raise InternalInconsistency("strand sides mislabeled")
            perm[sides[t1] - 1] = sides[_t2]
        if None in perm:
            raise InconsistentSheets(f"edge {e} crossed by too few strands")
        sigma[e] = tuple(perm)

    branch = {}
    for (ri, pos), (index, _direction) in table.indices.items():
        if index < 2:
            continue
        label = tm.regions[ri].label
        # the seam advances the winding layer by one, regardless of the
        # direction in which the circuit traverses the triangle boundary
        cyc = tuple(table.sheet_no[(ri, pos, w)] for w in range(1, index + 1))
        branch.setdefault(label, []).append(cyc)
    return sigma, branch


def _free_sheets(cover: MonodromyCover, t: int) -> set:
    """The sheets of triangle t outside its branch cycles."""
    return set(range(1, cover.d + 1)).difference(*cover.branch.get(t, ()))


def _first_points(cover: MonodromyCover, home: int, tau: tuple):
    """(triangle, transposition) places for a tube's first point: the
    transpositions of a triangle's free sheets that join the same two
    components of the total space built so far as `tau` over `home`, home
    first.  Any of them adds the tube's two index-2 points and its
    connection; the sheets themselves are a matter of labelling."""
    comp = cover_components(cover)
    want = sorted(comp[(home, s)] for s in tau)
    for t in sorted(range(len(cover.base.triangles)), key=lambda t: t != home):
        for pair in combinations(sorted(_free_sheets(cover, t)), 2):
            if sorted(comp[(t, s)] for s in pair) == want:
                yield t, pair


def _skeleton_path(base, v, w) -> list:
    """(vertex, edge leaving it) steps of a shortest skeleton path v -> w."""
    paths = {v: []}
    queue = [v]
    for u in queue:
        for e in base.rotations[u]:
            x = next(y for y in base.edges[e] if y != u)
            if x not in paths:
                paths[x] = paths[u] + [(u, e)]
                queue.append(x)
    return paths[w]


def _step_index(cover: MonodromyCover, v, head: tuple) -> int:
    """The index in fan_steps(v) of the step beginning with `head`."""
    return next(i for i, step in enumerate(cover.fan_steps(v)) if step[:2] == head)


def _close_through_edge(cover: MonodromyCover, u, e: int) -> None:
    """Solve edge e's permutation so that u's fan closes, as the sampler
    does: the crossing X (sigma from side 0, else sigma^-1) becomes
    (pre * post)^-1, the rest of the fan inverted: X * P^-1 for P the fan
    read from X's step."""
    k = _step_index(cover, u, ("edge", e))
    p, sigma = cover.fan_product(u, k), cover.edge_perm[e]
    forward = cover.fan_steps(u)[k][2] == cover.side_triangles(e)[0]
    cover.edge_perm[e] = perm_mul(sigma, perm_inv(p)) if forward else perm_mul(p, sigma)


def _place_tube(cover: MonodromyCover, home: int, tau: tuple) -> bool:
    """Add the two index-2 branch points of a tube joining the sheets of
    the transposition `tau` over triangle `home`.

    The first point goes to a triangle t1 (_first_points), which opens the
    fan at v, t1's seam vertex.  The second goes to the first triangle
    t2 != t1, those with seam vertex v first, where it closes that fan:
    the open fan is moved along a skeleton path to t2's seam vertex w,
    each fan on the way closed through its path edge, and the point is
    w's fan product read from t2's seam step, if that is a transposition
    of t2's free sheets: it commutes with t2's seam product, so adding it
    multiplies that fan product by itself, the identity.  With v = w no
    edge permutation changes.
    """
    for t1, tau1 in _first_points(cover, home, tau):
        cover.branch.setdefault(t1, []).append(tau1)
        v = cover.seam_vertex(t1)
        for t2 in sorted(set(range(len(cover.base.triangles))) - {t1},
                         key=lambda t: cover.seam_vertex(t) != v):
            saved = dict(cover.edge_perm)
            w = cover.seam_vertex(t2)
            for u, e in _skeleton_path(cover.base, v, w):
                _close_through_edge(cover, u, e)
            p = cover.fan_product(w, _step_index(cover, w, ("seam", t2)))
            tau2 = tuple(s for s in range(1, cover.d + 1) if p[s - 1] != s)
            if len(tau2) == 2 and _free_sheets(cover, t2).issuperset(tau2):
                cover.branch.setdefault(t2, []).append(tau2)
                return True
            cover.edge_perm = saved
        cover.branch[t1].remove(tau1)
    return False


def factorize(tm: TransverseMap) -> Decomposition:
    """Read the pinch-plus-branched-covering decomposition off a normal
    form; graph-like forms yield the degree-zero variant."""
    state = is_normal(tm)
    if not state["normal"]:
        raise NotNormal(f"map is not in normal form: {state}")

    if state["graph_like"]:
        edges_hit = sorted({c.edge for c in tm.isolated.values()})
        triangles_hit = sorted({r.label for r in tm.regions})
        return Decomposition(variant="graph_like",
                             image={"dual_edges_hit": edges_hit,
                                    "triangles_hit": triangles_hit})

    table = _SheetTable(tm)
    sigma, branch = _assemble_cover(tm, table)
    cover = MonodromyCover(tm.target, table.d, sigma,
                           {t: list(cs) for t, cs in branch.items()})

    pinches = []
    tubes = []
    for ri, region in enumerate(tm.regions):
        kind = region.kind
        k = len(region.circuits)
        if kind.orientable and kind.handles > 0:
            pinches.append(PinchPiece(region.label,
                                      SurfaceKind(True, handles=kind.handles)))
        elif not kind.orientable:
            pinches.append(PinchPiece(region.label,
                                      SurfaceKind(False, crosscaps=kind.crosscaps)))
        # a tube joins the first sheets of consecutive circuits' disks
        tubes += [(region.label, (table.sheet_no[(ri, j, 1)],
                                  table.sheet_no[(ri, j + 1, 1)])) for j in range(k - 1)]

    # cycles within one triangle are disjoint, so a triangle with f sheets
    # outside its cycles holds at most f // 2 of the tubes' transpositions
    room = sum(len(_free_sheets(cover, t)) // 2 for t in range(len(table.by_triangle)))
    if 2 * len(tubes) > room:
        raise Unsatisfiable(f"{len(tubes)} tubes need {2 * len(tubes)} index-2 branch "
                            f"points, but the triangles' free sheets hold only "
                            f"{room} disjoint transpositions")
    for (home, cyc) in tubes:
        if not _place_tube(cover, home, cyc):
            raise InternalInconsistency(
                "could not place a tube's branch points disjointly")

    problems = cover.validate()
    if problems:
        raise InternalInconsistency(f"factorized cover invalid: {problems}")
    if not cover_connected(cover):
        raise InternalInconsistency("factorized cover is disconnected")

    branch_indices = cover.branch_indices()
    chi_m = chi_domain(tm)
    chi_n = tm.target.euler
    d = cover.d
    deficit = d * chi_n - chi_m
    defect_sum = sum(i - 1 for i in branch_indices) + \
        sum(1 - p.collapsed_chi for p in pinches)
    if deficit != defect_sum:
        raise InternalInconsistency(
            f"deficit identity fails: {deficit} != {defect_sum}")
    if deficit < 0:
        raise ImpossibleError(f"negative deficit {deficit}")
    if cover_chi(cover) != chi_m + sum(1 - p.collapsed_chi for p in pinches):
        raise InternalInconsistency("cover Euler characteristic mismatch")
    if any(not p.kind.orientable for p in pinches) and branch_indices:
        raise ImpossibleError("nonorientable pinch coexists with branch points")

    return Decomposition(variant="pinched_cover", cover=cover, pinches=pinches,
                         d=d, branch_indices=branch_indices,
                         kneser_deficit=deficit)


# --------------------------------------------------------------------------
# Degree and the inequality


def orientation_true(decomp: Decomposition) -> bool:
    """Whether the factored map preserves the orientation behaviour of
    loops: true exactly when every pinched piece is orientable."""
    if decomp.variant != "pinched_cover":
        raise GraphLike("degree-zero maps have no pinched-cover data")
    return all(p.kind.orientable for p in decomp.pinches)


def geometric_degree(tm: TransverseMap, *, with_decomposition: bool = False):
    """Minimal preimage count of a regular value over the homotopy class:
    normalize, factor, and return the sheet count (0 for graph-like)."""
    m2 = mod2_degree(tm)
    norm, _trace = normalize(tm)
    decomp = factorize(norm)
    d = 0 if decomp.variant == "graph_like" else decomp.d
    if d % 2 != m2:
        raise ImpossibleError(f"degree {d} contradicts mod-2 degree {m2}")
    if decomp.variant == "pinched_cover" and tm.target.orientability() \
            and domain_orientable(tm) and orientation_true(decomp):
        s = signed_degree(tm)
        if abs(s) != d:
            raise ImpossibleError(
                f"degree {d} contradicts signed degree {s}")
    if with_decomposition:
        return d, decomp
    return d


def verify_kneser(tm: TransverseMap) -> dict:
    """Check chi(M) <= d * chi(N) through the factorization, reporting the
    exact deficit breakdown."""
    chi_m = chi_domain(tm)
    chi_n = tm.target.euler
    d, decomp = geometric_degree(tm, with_decomposition=True)
    if d == 0:
        raise ZeroDegree("the inequality concerns positive-degree maps")
    report = {
        "chi_M": chi_m,
        "chi_N": chi_n,
        "d": d,
        "deficit": decomp.kneser_deficit,
        "holds": chi_m <= d * chi_n,
        "branch_defect": sum(i - 1 for i in decomp.branch_indices),
        "pinch_defect": sum(1 - p.collapsed_chi for p in decomp.pinches),
    }
    if not report["holds"]:
        raise ImpossibleError(f"degree inequality failed: {report}")
    if decomp.kneser_deficit != d * chi_n - chi_m:
        raise ImpossibleError(f"deficit identity failed: {report}")
    return report


# --------------------------------------------------------------------------
# Composition with an unbranched covering of the target


def compose_with_covering(tm: TransverseMap, cover: MonodromyCover) -> TransverseMap:
    """Push a map over the total space of an unbranched covering down to
    the base: relabel every target reference through the projection."""
    if any(cover.branch.get(t) for t in cover.branch):
        raise Branched("composition target cover must be unbranched")
    total, labels = covers_mod.induced_triangulation(cover)
    if tm.target != total:
        raise InputError("map does not live over the induced triangulation")
    vlab = labels["vertices"]
    elab = labels["edges"]
    tlab = labels["triangles"]

    out = TransverseMap(
        cover.base, tm.pairing, tm.rotation, tm.edge_sign,
        {d: vlab[v] for d, v in tm.vertex_label.items()},
        {d: (elab[e], end) for d, (e, end) in tm.dart_label.items()},
        {cid: IsolatedCircle(elab[c.edge]) for cid, c in tm.isolated.items()},
        [Region(tlab[reg.label], reg.kind, reg.circuits) for reg in tm.regions])
    checked_tiling(out, "compose_with_covering")
    return out
