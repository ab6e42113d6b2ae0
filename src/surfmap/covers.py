"""Branched coverings of a triangulated surface as monodromy data.

A cover stores one permutation per base edge (matching sheets across the
two incident triangle sides) plus branch data per triangle: a set of
disjoint cycles, each cycle of length i being one interior branch point
of index i.  Sheet labels are read just inside a triangle's boundary
walk; completing the walk crosses the triangle's seam, which applies the
product of its branch cycles.  Vertex links must close after one loop,
so branch points never sit on the skeleton.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .errors import (Branched, InputError, InternalInconsistency, InvalidSurface,
                     NotClosed, Unsatisfiable)
from .surfaces import (Triangulation, derive_rotations, doc_field, doc_int,
                       per_triangulation)
from .unionfind import ParityUF


# -- permutation helpers (sheets are 1..d, perms stored as tuples) -----------

def perm_id(d: int) -> tuple:
    return tuple(range(1, d + 1))


def perm_mul(p: tuple, q: tuple) -> tuple:
    """Composition acting right to left: (p*q)(s) = p(q(s))."""
    return tuple(p[q[s - 1] - 1] for s in range(1, len(p) + 1))


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_from_cycles(cycles, d: int) -> tuple:
    out = list(range(1, d + 1))
    for cyc in cycles:
        for i, s in enumerate(cyc):
            out[s - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


@dataclass
class MonodromyCover:
    base: Triangulation
    d: int
    edge_perm: dict = field(default_factory=dict)   # edge -> sheet perm, side0 -> side1
    branch: dict = field(default_factory=dict)      # triangle -> list of cycles (tuples)
    # (state, problems) of the last validate(), and (state, solve) of the
    # last cover_solve()
    _verdict: tuple = field(default=None, init=False, repr=False, compare=False)
    _solved: tuple = field(default=None, init=False, repr=False, compare=False)

    # -- bookkeeping ----------------------------------------------------------

    def seam_perm(self, t: int) -> tuple:
        return perm_from_cycles(self.branch.get(t, ()), self.d)

    def seam_vertex(self, t: int):
        return self.base.directed_ends(self.base.triangles[t][0])[0]

    def branch_cycles(self):
        for t in sorted(self.branch):
            for cyc in self.branch[t]:
                yield t, tuple(cyc)

    def branch_indices(self) -> list:
        return sorted(len(c) for _t, c in self.branch_cycles())

    def side_triangles(self, e: int) -> tuple:
        (t1, _k1), (t2, _k2) = self.base.edge_sides(e)
        return t1, t2

    # -- fan walks -------------------------------------------------------------

    def fan_steps(self, v):
        """The fan walk at v as (kind, payload) steps: ('edge', e, from_t)
        then ('seam', t, enter, leave), repeated around the rotation."""
        return _fan_steps(self.base)[v]

    def _actions(self) -> tuple:
        """Every sheet action a fan walk reads, each read once, as tuples
        with a 0 in front (entry s is the image of sheet s): across[e] is
        (e's first side, e crossed from it, e crossed back), and seams[t]
        is branched triangle t's (seam vertex, {(enter, leave): action})."""
        across, seams = {}, {}
        for e, p in self.edge_perm.items():
            across[e] = (self.side_triangles(e)[0], (0, *p), (0, *perm_inv(p)))
        for t, cycles in self.branch.items():
            if cycles:
                walk, beta = self.base.triangles[t], perm_from_cycles(cycles, self.d)
                e_from, e_to = walk[2][0], walk[0][0]
                # beta crossed from e_from to e_to; it wins if the two are one edge
                seams[t] = (self.seam_vertex(t), {(e_to, e_from): (0, *perm_inv(beta)),
                                                  (e_from, e_to): (0, *beta)})
        return across, seams

    def fan_product(self, v, start: int = 0, actions=None) -> tuple:
        """Sheet monodromy of a small loop around vertex v, read from step
        `start` of fan_steps(v) round, with the sheet actions `actions`
        (_actions(), read afresh when not given)."""
        across, seams = actions or self._actions()
        steps = self.fan_steps(v)
        acc = perm_id(self.d)
        for step in steps[start:] + steps[:start]:
            if step[0] == "edge":
                _kind, e, from_t = step
                first, forward, backward = across[e]
                p = forward if from_t == first else backward
            else:
                _kind, t, enter, leave = step
                seam = seams.get(t)
                if seam is None or seam[0] != v:
                    continue            # the identity
                p = seam[1].get((enter, leave))
                if p is None:
                    raise InvalidSurface(
                        f"seam sector of triangle {t} at {v} mismatches fan")
            acc = tuple(map(p.__getitem__, acc))
        return acc

    # -- validation -------------------------------------------------------------

    def _snapshot(self) -> tuple:
        """The cover's state: its base itself, which is frozen, and d,
        edge_perm and branch by value, every list as a tuple.  Equal
        states mean equal covers; the same base compares by identity."""
        return (self.base, self.d, tuple((e, tuple(p)) for e, p in self.edge_perm.items()),
                tuple((t, tuple(map(tuple, cycles)))
                      for t, cycles in self.branch.items()))

    def validate(self) -> list:
        """The cover's problems.  The verdict is memoized under the cover's
        state (_snapshot), so a cover checked again unchanged
        (random_cover checks what it returns, map_from_cover and
        assemble_total_space check what they are given) is not checked
        twice, and one whose base is rebound, or whose other data is
        changed in place, is checked in full."""
        try:
            key = self._snapshot()
        except TypeError:      # data of the wrong shape: no memo
            return self._problems()
        if self._verdict is None or self._verdict[0] != key:
            self._verdict = (key, tuple(self._problems()))
        return list(self._verdict[1])

    def _problems(self) -> list:
        """The cover's problems, found afresh: the data's shape, then every
        vertex fan walked (fan_product over fan_steps) with each edge and
        seam permutation and its inverse read once per call."""
        problems = []
        if self.d < 1:
            return ["sheet count must be positive"]
        for e in self.edge_perm:
            if e not in range(len(self.base.edges)):
                problems.append(f"edge_perm names edge {e}, which the base lacks")
        for e in range(len(self.base.edges)):
            p = self.edge_perm.get(e)
            # the length test comes first: nothing of size d is built before
            # a permutation shows that d is no larger than the document
            if p is not None and len(p) != self.d:
                problems.append(f"edge {e} has no valid sheet permutation "
                                f"({len(p)} entries, d = {self.d})")
            elif p is None or sorted(p) != list(range(1, self.d + 1)):
                problems.append(f"edge {e} has no valid sheet permutation")
        for t, cycles in self.branch.items():
            if t not in range(len(self.base.triangles)):
                problems.append(f"branch cycles on triangle {t}, which the base lacks")
            seen = set()
            for cyc in cycles:
                if len(cyc) < 2:
                    problems.append(f"branch cycle of length < 2 in triangle {t}")
                if any(s < 1 or s > self.d for s in cyc) or len(set(cyc)) != len(cyc):
                    problems.append(f"bad branch cycle {cyc} in triangle {t}")
                if seen & set(cyc):
                    problems.append(f"overlapping branch cycles in triangle {t}")
                seen |= set(cyc)
        if problems:
            return problems
        ident, actions = perm_id(self.d), self._actions()
        for v in self.base.vertices:
            if self.fan_product(v, 0, actions) != ident:
                problems.append(f"vertex fan at {v} does not close")
        return problems

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise NotClosed("; ".join(problems))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": "cover",
            "base": self.base.to_json(),
            "d": self.d,
            "edge_perm": {str(e): list(p) for e, p in sorted(self.edge_perm.items())},
            "branch": {str(t): sorted([list(c) for c in cycles])
                       for t, cycles in sorted(self.branch.items()) if cycles},
        }

    @staticmethod
    def from_json(obj: dict) -> "MonodromyCover":
        if not isinstance(obj, dict) or obj.get("type") != "cover":
            raise InvalidSurface("not a cover document")
        what = "cover"
        base = Triangulation.from_json(doc_field(obj, "base", dict, what))
        problems = base.validate()
        if problems:
            raise InvalidSurface(f"{what}: invalid base: {problems[:4]}")

        def ints(xs, what_x):
            if not isinstance(xs, list):
                raise InputError(f"{what_x}: expected a list, got {xs!r}")
            return tuple(doc_int(x, what_x) for x in xs)

        branch_doc = obj.get("branch", {})
        if not isinstance(branch_doc, dict):
            raise InputError(f"{what}: 'branch' must be a JSON dict")
        branch = {}
        for t, cycles in branch_doc.items():
            t = doc_int(t, f"{what} branch triangle")
            if not 0 <= t < len(base.triangles) or not isinstance(cycles, list):
                raise InputError(f"{what}: bad branch entry for triangle {t}")
            branch[t] = [ints(c, f"{what} branch cycle") for c in cycles]
        return MonodromyCover(
            base=base,
            d=doc_field(obj, "d", int, what),
            edge_perm={doc_int(e, f"{what} edge"): ints(p, f"{what} edge permutation")
                       for e, p in doc_field(obj, "edge_perm", dict, what).items()},
            branch=branch,
        )


def cover_chi(cover: MonodromyCover) -> int:
    """Euler characteristic of the total space by sheet counting:
    d * chi(base) minus the branching defect."""
    defect = sum(len(c) - 1 for _t, c in cover.branch_cycles())
    return cover.d * cover.base.euler - defect


def cover_solve(cover: MonodromyCover) -> ParityUF:
    """The total space's components and orientation in one parity
    union-find over the (triangle, sheet) states, state (t, s) being node
    t*d + s - 1.  A node's value is the flip of that lifted triangle
    against the base walk of t.  An edge crossing ties its two states,
    with parity 0 when the base's two triangle walks traverse the edge
    oppositely and 1 otherwise; the sheets of a branch cycle are one
    disk and are tied with parity 0.  The classes (`sets`) are the
    components, and `ok` is the total space's orientability.

    Note one component is stronger than transitivity of the group
    generated by all edge permutations; crossing permutations compose
    along paths, so only closed-path products act on a single fiber.

    The solve is memoized beside validate's verdict, under the same
    state (MonodromyCover._snapshot), so a cover solved again unchanged
    (random_cover solves what it keeps, map_from_cover and factorize what
    they are given) is not solved twice, and one whose base is rebound or
    whose data is changed in place is solved again; each call gets a copy
    of its own, which the caller may change.
    """
    try:
        key = cover._snapshot()
    except TypeError:      # data of the wrong shape: no memo
        return _solve_cover(cover)
    if cover._solved is None or cover._solved[0] != key:
        cover._solved = (key, _solve_cover(cover))
    return cover._solved[1].copy()


def _solve_cover(cover: MonodromyCover) -> ParityUF:
    """cover_solve's union-find, solved from scratch."""
    base, d = cover.base, cover.d
    uf = ParityUF(len(base.triangles) * d)
    union = uf.union
    for e in range(len(base.edges)):
        sigma = cover.edge_perm[e]
        (t1, k1), (t2, k2) = base.edge_sides(e)
        bit = int(base.triangles[t1][k1][1] == base.triangles[t2][k2][1])
        n1, n2 = t1 * d, t2 * d - 1
        for s, s2 in enumerate(sigma):
            union(n1 + s, n2 + s2, bit)
    for t, cyc in cover.branch_cycles():
        for s in cyc[1:]:
            union(t * d + cyc[0] - 1, t * d + s - 1, 0)
    return uf


def cover_components(cover: MonodromyCover) -> dict:
    """(triangle, sheet) -> number of its connected component of the total
    space (cover_solve), numbered from 0 in order of each component's
    least state."""
    uf, d = cover_solve(cover), cover.d
    number = {}
    return {(t, s): number.setdefault(uf.find(t * d + s - 1)[0], len(number))
            for t in range(len(cover.base.triangles)) for s in range(1, d + 1)}


def cover_connected(cover: MonodromyCover) -> bool:
    """Connectivity of the total space: one component (cover_solve)."""
    return cover_solve(cover).sets == 1


# --------------------------------------------------------------------------
# Explicit assembly of the total space (the independent oracle)


def disk_pieces(cover: MonodromyCover):
    """Disk pieces of the preimage of each closed triangle: (triangle,
    sheet loop).  A loop of length 1 is an unbranched lift; length i is a
    branched disk whose boundary winds i times around the triangle."""
    out = []
    for t in range(len(cover.base.triangles)):
        cycles = [tuple(c) for c in cover.branch.get(t, ())]
        in_cycle = {s for c in cycles for s in c}
        for s in range(1, cover.d + 1):
            if s not in in_cycle:
                out.append((t, [s]))
        beta = cover.seam_perm(t)
        for c in cycles:
            s0 = min(c)
            loop = [s0]
            while beta[loop[-1] - 1] != s0:
                loop.append(beta[loop[-1] - 1])
            out.append((t, loop))
    return out


def assemble_total_space(cover: MonodromyCover, *, with_labels: bool = False):
    """Build the total space explicitly: d copies of every triangle glued
    by the edge permutations, each branch cycle realized by coning the
    merged disk.  Comparing V-E+F of the result against cover_chi is the
    caller's oracle; the two are computed by unrelated routes.  The
    rotations are derived from the result's own corner fans
    (derive_rotations).

    The polygons' corners are numbered in one run, piece by piece
    (disk_pieces), and kept in flat lists: per corner the copy of the
    side leaving it, that side's sign and the base vertex under the
    corner.  Edge copy (e, s) is number e*d + s - 1, s the sheet on e's
    first side.

    Raises NotClosed when the data does not give d vertices over every
    base vertex.
    """
    cover.require_valid()
    base, d = cover.base, cover.d
    base_edges = base.edges

    # per base triangle: the copies of its three sides on each sheet, and
    # the sides' signs and tails
    rows, side_signs, side_tails = [], [], []
    for t, walk in enumerate(base.triangles):
        columns = []
        for e, sg in walk:
            if base.edge_sides(e)[0][0] == t:
                columns.append(range(e * d, e * d + d))
            else:
                columns.append([e * d + s - 1 for s in perm_inv(cover.edge_perm[e])])
        rows.append(list(zip(*columns)))
        side_signs.append([sg for _e, sg in walk])
        side_tails.append([base_edges[e][0] if sg > 0 else base_edges[e][1]
                           for e, sg in walk])

    # polygon pi's corners run from offset[pi] to offset[pi + 1]
    pieces = disk_pieces(cover)
    copies, signs, tails, offset = [], [], [], [0]
    for t, loop in pieces:
        row = rows[t]
        for s in loop:
            copies += row[s - 1]
        signs += side_signs[t] * len(loop)
        tails += side_tails[t] * len(loop)
        offset.append(len(copies))
    n_corners = len(copies)
    head = list(range(1, n_corners + 1))     # corner -> the next one round its polygon
    for start, end in zip(offset, offset[1:]):
        head[end - 1] = start

    # each edge copy's first and last corner, copies in order of the first
    glued = Counter(copies)
    for copy, n in glued.items():
        if n != 2:
            raise NotClosed(f"edge copy {(copy // d, copy % d + 1)} glued {n} times")
    first = dict(zip(reversed(copies), range(n_corners - 1, -1, -1)))
    last = dict(zip(copies, range(n_corners)))

    # glue the corners into vertex lifts
    uf = ParityUF(n_corners)
    union = uf.union
    for copy in glued:
        c1, c2 = first[copy], last[copy]
        if signs[c1] == signs[c2]:
            union(c1, c2, 0)
            union(head[c1], head[c2], 0)
        else:
            union(c1, head[c2], 0)
            union(head[c1], c2, 0)

    # lifts numbered in order of their first corner
    find = uf.find
    reps = {}
    lift = [reps.setdefault(find(c)[0], len(reps)) for c in range(n_corners)]

    # d lifts over every base vertex, each projecting to one base vertex:
    # the one under its first corner
    under_first = dict(zip(reversed(lift), reversed(tails)))
    base_vertex_of_lift = [under_first[lv] for lv in range(len(reps))]
    if list(map(base_vertex_of_lift.__getitem__, lift)) != tails:
        raise NotClosed("a vertex lift projects to two base vertices")
    per_base = Counter(base_vertex_of_lift)
    for v in base.vertices:
        if per_base[v] != d:
            raise NotClosed(f"{per_base[v]} lifts over vertex {v}, expected {d}")

    # build the triangulated total space: the edge copies first, each
    # keeping the base edge's own end order
    vertex_names = list(range(len(reps)))
    edges = [(lift[c], lift[head[c]]) if signs[c] > 0 else (lift[head[c]], lift[c])
             for c in map(first.__getitem__, glued)]
    edge_index = dict(zip(glued, range(len(glued))))
    edge_labels = {i: copy // d for i, copy in enumerate(glued)}
    vert_labels = dict(enumerate(base_vertex_of_lift))

    side_edge = list(map(edge_index.__getitem__, copies))    # corner -> its side's edge
    sides = tuple(zip(side_edge, signs))     # sliced into the triangles' walks
    triangles, tri_labels = [], []
    for (t, _loop), start, end in zip(pieces, offset, offset[1:]):
        if end - start == 3:
            triangles.append(sides[start:end])
            tri_labels.append(t)
        else:
            center = len(vertex_names)
            vertex_names.append(center)
            vert_labels[center] = None
            n = end - start
            corner_lifts = lift[start:end]
            spokes = list(range(len(edges), len(edges) + n))
            for lv in corner_lifts:
                edge_labels[len(edges)] = None
                edges.append((center, lv))
            for ci in range(n):
                e_side = side_edge[start + ci]
                s_here = 1 if edges[e_side][0] == corner_lifts[ci] else -1
                nxt = (ci + 1) % n
                triangles.append(((e_side, s_here), (spokes[nxt], -1), (spokes[ci], 1)))
                tri_labels.append(t)

    total = derive_rotations(Triangulation(vertex_names, edges, triangles))
    if with_labels:
        return total, {"vertices": vert_labels, "edges": edge_labels,
                       "triangles": dict(enumerate(tri_labels))}
    return total


def induced_triangulation(cover: MonodromyCover):
    """Total space of an unbranched connected cover plus projection labels."""
    if any(cover.branch.get(t) for t in cover.branch):
        raise Branched("cover has branch points")
    return assemble_total_space(cover, with_labels=True)


# --------------------------------------------------------------------------
# Seeded random generation


def _shuffle_steps(n: int) -> tuple:
    """The swaps random.Random.shuffle makes on n items, in order: (position
    i, the bit length of its bound i + 1) for i from n - 1 down to 1."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def _shuffle_into(getrandbits, steps: tuple, items, out, keys) -> None:
    """out[key] = a copy of `items` put through random.Random.shuffle, for
    each key of `keys` in turn, with shuffle's _randbelow inlined over the
    bound `getrandbits` of the same generator: the same calls in the same
    order, so the same permutations and the same stream afterwards.
    `steps` is _shuffle_steps(len(items))."""
    for key in keys:
        x = [*items]
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        out[key] = x


def _random_branch(getrandbits, steps: tuple, triangles: list, sheets: tuple, spec):
    """Distribute requested cycle lengths over triangles, keeping cycles
    support-disjoint within each triangle.  `spec` is random_cover's
    resolved spec: None or a list of lengths, each an int in 2..d.  Each
    length goes to a triangle drawn from those with that many sheets
    still free.  `triangles` lists the base's triangles 0..F-1 and `sheets`
    is the tuple 1..d (both shared across tries; not modified).  The draws
    are random.Random's choice and shuffle over its bound `getrandbits`,
    with their _randbelow inlined: a choice per length, then one batch of
    shuffles, a triangle's sheets per shuffle; `steps` is
    _shuffle_steps(d)."""
    if spec is None:
        return {}
    d = len(sheets)
    lengths_by_t = {}
    used = {}     # triangle given cycles in this try -> sheets they use
    fullest = 0   # the most sheets one triangle uses
    for ln in spec:
        # the triangles with ln free sheets, in order
        fits = triangles
        if fullest + ln > d:
            fits = [t for t in triangles if used.get(t, 0) + ln <= d]
        if not fits:
            raise Unsatisfiable(f"cycle lengths {spec} do not fit on {d} sheets")
        n = len(fits)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        t = fits[i]
        u = used[t] = used.get(t, 0) + ln
        if u > fullest:
            fullest = u
        lengths_by_t.setdefault(t, []).append(ln)
    branch = {}     # triangle -> its shuffled sheets, then its cycles
    _shuffle_into(getrandbits, steps, sheets, branch, lengths_by_t)
    for t, lengths in lengths_by_t.items():
        avail = branch[t]
        cycles = []
        pos = 0
        for ln in lengths:
            cycles.append(tuple(avail[pos:pos + ln]))
            pos += ln
        branch[t] = cycles
    return branch


@per_triangulation
def _fan_steps(tri: Triangulation) -> dict:
    """v -> MonodromyCover.fan_steps(v) over the base tri."""
    table = {}
    for v in tri.vertices:
        rot, sectors = tri.rotations[v], tri.sector_triangles(v)
        steps = table[v] = []
        for i, e in enumerate(rot):
            # e crossed from the sector before it, then the sector after it
            steps += (("edge", e, sectors[i - 1]),
                      ("seam", sectors[i], e, rot[(i + 1) % len(rot)]))
    return table


@per_triangulation
def _fan_programs(tri: Triangulation) -> dict:
    """v -> the fan walk at v compiled to indices into a sheet table.

    The table holds 0-based permutations by slot: slot e is edge e's
    (side0 -> side1) and slot E + t triangle t's seam permutation, None
    while t has no branch cycle.  Table entry 2*k is slot k's permutation
    and 2*k + 1 its inverse (_sheet_table).  Compiled from the steps of
    MonodromyCover.fan_steps (_fan_steps) once per triangulation; seam
    sectors away from a triangle's seam vertex act as the identity and
    are left out.
    """
    n_edges = len(tri.edges)
    table = {}
    for v, steps in _fan_steps(tri).items():
        program = []
        for step in steps:
            if step[0] == "edge":
                _kind, e, from_t = step
                program.append(2 * e + (from_t != tri.edge_sides(e)[0][0]))
                continue
            _kind, t, enter, leave = step
            walk = tri.triangles[t]
            if tri.directed_ends(walk[0])[0] != v:
                continue
            if (enter, leave) == (walk[2][0], walk[0][0]):
                program.append(2 * (n_edges + t))
            elif (enter, leave) == (walk[0][0], walk[2][0]):
                program.append(2 * (n_edges + t) + 1)
            else:
                raise InvalidSurface(
                    f"seam sector of triangle {t} at {v} mismatches fan")
        table[v] = tuple(program)
    return table


@per_triangulation
def _sampler_plan(tri: Triangulation) -> tuple:
    """random_cover's per-try schedule, which the triangulation alone fixes:
    (edges drawn, in draw order; (table index of the parent-edge crossing,
    the fan program rotated to start just after it) per non-root vertex,
    leaves of a breadth-first spanning tree first; the root word; the
    order edges enter edge_perm).  Made once per triangulation
    (per_triangulation).

    The root word is the root's program with every solved entry replaced
    by its defining product, leaves first: entry `cross ^ 1` by the
    rotated program, entry `cross` by that program reversed with every
    index inverted (^ 1).  It reads only drawn edges, each twice, and
    seams: the surface relator.  Its product is the root's fan product
    itself, not a conjugate.  Steps are (slot, inverse?) pairs, as _walk
    reads them.
    """
    root = tri.vertices[0]
    parent_edge = {root: None}
    order = [root]
    adj = {v: [] for v in tri.vertices}
    for e, (a, b) in enumerate(tri.edges):
        adj[a].append((e, b))
        adj[b].append((e, a))
    for v in order:
        for (e, w) in adj[v]:
            if w not in parent_edge:
                parent_edge[w] = e
                order.append(w)
    programs = _fan_programs(tri)
    draws, solves, assigned = [], [], []
    for v in reversed(order):
        e_solve = parent_edge[v]
        for e in tri.rotations[v]:
            if e not in assigned and e != e_solve:
                draws.append(e)
                assigned.append(e)
        if e_solve is not None:
            program = programs[v]
            k = next(i for i, step in enumerate(program) if step >> 1 == e_solve)
            solves.append((program[k], program[k + 1:] + program[:k]))
            assigned.append(e_solve)
    expansion = {}    # solved table entry -> its word

    def expand(program):
        return tuple(j for i in program for j in expansion.get(i, (i,)))

    for cross, program in solves:
        word = expand(program)
        expansion[cross ^ 1] = word
        expansion[cross] = tuple(i ^ 1 for i in reversed(word))
    root_word = tuple(divmod(i, 2) for i in expand(programs[root]))
    return tuple(draws), tuple(solves), root_word, tuple(assigned)


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, s in enumerate(p):
        out[s] = i
    return tuple(out)


def _sheet_slots(tri: Triangulation, d: int, branch: dict) -> list:
    """The slots of a sheet table (see _fan_programs), forward permutations
    only: the seam slots of `branch` filled in, 0-based and straight from
    the cycles, every edge slot None."""
    n_edges = len(tri.edges)
    perms = [None] * (n_edges + len(tri.triangles))
    for t, cycles in branch.items():
        if cycles:
            p = list(range(d))
            for cyc in cycles:
                prev = cyc[-1]
                for s in cyc:
                    p[prev - 1] = s - 1
                    prev = s
            perms[n_edges + t] = p
    return perms


def _sheet_table(perms: list, solves: tuple, d: int) -> list:
    """The sheet table of the slots `perms` (entry 2*k slot k's permutation,
    2*k + 1 its inverse, None for None), with the entries of `solves` (see
    _sampler_plan) solved in order."""
    table = [None] * (2 * len(perms))
    for k, p in enumerate(perms):
        if p is not None:
            table[2 * k] = p = tuple(p)
            table[2 * k + 1] = _inverse(p)
    ident = tuple(range(d))
    for cross, program in solves:
        # the fan closes when X^eps = (pre * post)^-1, the rotated program's
        # product inverted, X^eps being the table entry at `cross`
        acc = _run_fan(program, table, ident)
        table[cross] = _inverse(acc)
        table[cross ^ 1] = acc
    return table


def _run_fan(program, table, acc: tuple) -> tuple:
    """acc followed by the program's sheet actions: p o acc for each step's
    table entry p, 0-based; None entries are the identity."""
    for i in program:
        p = table[i]
        if p is not None:
            acc = tuple(map(p.__getitem__, acc))
    return acc


def _walk(word: tuple, perms: list, s: int) -> int:
    """Sheet s carried through `word`, whose steps (slot, inverse?) read the
    forward permutations `perms` by slot; a None slot is the identity."""
    for k, inverse in word:
        p = perms[k]
        if p is not None:
            s = p.index(s) if inverse else p[s]
    return s


def random_cover(tri: Triangulation, d: int, branch_spec=None, seed: int = 0,
                 *, max_tries: int = 50000) -> MonodromyCover:
    """Deterministic-in-seed random branched cover.

    Edge permutations are solved vertex by vertex, leaves of a skeleton
    spanning tree first: every non-root vertex closes its fan through its
    still-free parent edge (loop edges are forbidden, so each edge crosses
    a fan exactly once and the solve is exact).  The root's fan is the one
    genuine constraint; fresh randomness retries it.

    A try draws its branch cycles' sheets in one batch of shuffles and
    its edge permutations in another (_shuffle_into), then walks sheets
    through the root word (_sampler_plan), the root's fan with every
    solve substituted: its product is the root's fan product, so the try
    fails at the first sheet the word moves, before any solve or inverse
    is computed.  Sheet 0 is walked first, and nearly every rejected try
    fails there; the other sheets are walked only when it returns.  Only
    a try that fixes every sheet builds its sheet table from the
    compiled fan walks (_fan_programs) and fills edge_perm.  Such a cover
    must pass validate(), the uncompiled oracle (a failure is an
    InternalInconsistency), and is kept when it is connected
    (cover_connected).  The random stream and the accepted cover are
    those of the uncompiled walk (tests/sampler_digests.json pins them).
    The spec, None or a list of cycle lengths, is resolved to ints and
    checked once, before the first try.
    """
    if d < 1:
        raise Unsatisfiable("d must be >= 1")
    rng = random.Random(seed)

    spec, lengths = None, []      # the spec resolved to ints, and its lengths
    if branch_spec is not None:
        spec = lengths = [int(x) for x in branch_spec]
    if any(ln < 2 or ln > d for ln in lengths):
        raise Unsatisfiable(f"cycle lengths {lengths} out of range for d={d}")
    if sum(ln - 1 for ln in lengths) % 2 != 0:
        # puncture monodromies multiply to a square times commutators,
        # an even permutation, so the total defect must be even
        raise Unsatisfiable(f"odd total branching defect {lengths} is unrealizable")
    chi_total = d * tri.euler - sum(ln - 1 for ln in lengths)
    if chi_total % 2 != 0:
        raise Unsatisfiable(
            f"total-space Euler characteristic {chi_total} is odd; no surface exists")
    if chi_total > 2:
        raise Unsatisfiable(
            f"connected total space cannot have Euler characteristic {chi_total} > 2")

    draws, solves, root_word, assigned = _sampler_plan(tri)
    ident = tuple(range(d))
    steps = _shuffle_steps(d)
    getrandbits = rng.getrandbits
    triangles = list(range(len(tri.triangles)))
    sheets = tuple(range(1, d + 1))
    for _ in range(max_tries):
        branch = _random_branch(getrandbits, steps, triangles, sheets, spec)
        cover = MonodromyCover(tri, d, {}, branch)   # tries are counted by covers built
        perms = _sheet_slots(tri, d, branch)
        _shuffle_into(getrandbits, steps, ident, perms, draws)   # 1-based draws, minus 1
        if _walk(root_word, perms, 0) or any(
                _walk(root_word, perms, s) != s for s in ident[1:]):
            continue
        table = _sheet_table(perms, solves, d)
        for e in assigned:
            cover.edge_perm[e] = tuple(s + 1 for s in table[2 * e])
        problems = cover.validate()
        if problems:
            raise InternalInconsistency(
                "the root word fixes every sheet but the cover is invalid",
                context="random_cover", problems=problems)
        if not cover_connected(cover):
            continue
        return cover
    raise Unsatisfiable(
        f"no valid cover found for d={d}, branch={branch_spec!r}, seed={seed}")
