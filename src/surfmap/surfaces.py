"""Closed-surface arithmetic and validated triangulations of the target.

A triangulation is stored combinatorially: edges as vertex pairs (loops
forbidden, parallel edges allowed), triangles as closed walks of three
directed edges, and an explicit dart rotation (cyclic order of edge ends)
at every vertex.  The rotation is data, not derived, so nonorientable
targets need no embedding computation.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InputError, InvalidChi, InvalidSurface, UnknownName


# --------------------------------------------------------------------------
# Document shape checks: a malformed JSON document raises InputError


def doc_field(obj, key: str, kind: type, what: str):
    """obj[key], which must be present and of JSON type `kind`."""
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{what}: missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{what}: {key!r} must be a JSON {kind.__name__}")
    return value


def doc_int(x, what: str) -> int:
    """An integer of a document: an int, or its decimal string (as in
    JSON object keys)."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InputError(f"{what}: expected an integer, got {x!r}")


def doc_pair(x, what: str) -> tuple:
    """A two-element list of integers."""
    if not isinstance(x, list) or len(x) != 2:
        raise InputError(f"{what}: expected a pair, got {x!r}")
    return doc_int(x[0], what), doc_int(x[1], what)


def doc_id(x, what: str):
    """A vertex id: an integer or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"{what}: expected an integer or string id, got {x!r}")
    return x


@dataclass(frozen=True)
class SurfaceKind:
    """Topological type of a compact surface.

    Exactly one of handles/crosscaps is meaningful: handles when
    orientable, crosscaps (>= 1) when not.  boundary counts boundary
    circles; 0 means closed.
    """

    orientable: bool
    handles: int = 0
    crosscaps: int = 0
    boundary: int = 0

    def __post_init__(self):
        if self.orientable:
            if self.handles < 0 or self.crosscaps != 0:
                raise InvalidSurface(f"bad orientable kind {self}")
        else:
            if self.crosscaps < 1 or self.handles != 0:
                raise InvalidSurface(f"bad nonorientable kind {self}")
        if self.boundary < 0:
            raise InvalidSurface(f"negative boundary count in {self}")

    @property
    def euler(self) -> int:
        if self.orientable:
            return 2 - 2 * self.handles - self.boundary
        return 2 - self.crosscaps - self.boundary

    def is_closed(self) -> bool:
        return self.boundary == 0

    def name(self) -> str:
        base = {
            (True, 0): "sphere",
            (True, 1): "torus",
            (False, 1): "projective plane",
            (False, 2): "Klein bottle",
        }.get((self.orientable, self.handles if self.orientable else self.crosscaps))
        if base is None:
            base = (f"genus-{self.handles} surface" if self.orientable
                    else f"{self.crosscaps}-crosscap surface")
        if self.boundary:
            return f"{base} with {self.boundary} boundary circle(s)"
        return base

    def to_json(self) -> dict:
        return {"orientable": self.orientable, "handles": self.handles,
                "crosscaps": self.crosscaps, "boundary": self.boundary}

    @staticmethod
    def from_json(obj: dict) -> "SurfaceKind":
        orientable = doc_field(obj, "orientable", bool, "surface kind")
        return SurfaceKind(orientable,
                           *(doc_int(obj.get(k, 0), f"surface kind {k}")
                             for k in ("handles", "crosscaps", "boundary")))


def classify_surface(chi: int, orientable: bool) -> SurfaceKind:
    """The unique closed surface with the given Euler characteristic."""
    return classify_with_boundary(chi, 0, orientable)


def classify_with_boundary(chi: int, boundary: int, orientable: bool) -> SurfaceKind:
    """Compact-surface classification; raises InvalidChi on impossible data."""
    if boundary < 0:
        raise InvalidChi("negative boundary count")
    if orientable:
        g2 = 2 - chi - boundary
        if g2 < 0 or g2 % 2 != 0:
            raise InvalidChi(f"no orientable surface with chi={chi}, b={boundary}")
        return SurfaceKind(True, handles=g2 // 2, boundary=boundary)
    c = 2 - chi - boundary
    if c < 1:
        raise InvalidChi(f"no nonorientable surface with chi={chi}, b={boundary}")
    return SurfaceKind(False, crosscaps=c, boundary=boundary)


def connected_sum_kind(kind: SurfaceKind, other: SurfaceKind) -> SurfaceKind:
    """Kind of the connected sum; `other` must be closed."""
    if not other.is_closed():
        raise InvalidSurface("can only sum with a closed surface")
    chi = kind.euler + other.euler - 2
    orientable = kind.orientable and other.orientable
    return classify_with_boundary(chi, kind.boundary, orientable)


# --------------------------------------------------------------------------
# Triangulations


def per_triangulation(build):
    """Decorator: build(tri), built on first use and kept on tri as a
    cached_property keeps its table, so it cannot go stale; the one place
    outside a triangulation's own methods that stores on it."""
    name = f"{build.__module__}.{build.__qualname__}"   # never an attribute name

    @functools.wraps(build)
    def kept(tri):
        memo = tri.__dict__
        if name not in memo:
            memo[name] = build(tri)
        return memo[name]
    return kept


@dataclass(frozen=True)
class Triangulation:
    """Closed triangulated surface, a frozen value.

    edges[i] = (a, b) with a != b.  triangles[t] = three directed edges
    (edge index, sign) forming a closed walk; sign +1 traverses a -> b.
    rotations[v] = cyclic order of the edge indices incident to v, in the
    order the edge ends occur around v.  The fields are tuples (edges and
    sides given as tuple pairs) and rotations a read-only mapping of
    tuples, so the tables cached on the triangulation cannot go stale.
    """

    vertices: tuple
    edges: tuple
    triangles: tuple
    rotations: Mapping = field(default_factory=dict)

    def __post_init__(self):
        """Freeze the sequences the fields were given as."""
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "triangles", tuple(map(tuple, self.triangles)))
        object.__setattr__(self, "rotations", MappingProxyType(
            {v: tuple(rot) for v, rot in self.rotations.items()}))

    def __reduce__(self):
        """Pickled and deep-copied by its fields: a read-only mapping has no pickle."""
        return Triangulation, (self.vertices, self.edges, self.triangles, dict(self.rotations))

    # -- basic incidence ----------------------------------------------------

    def directed_ends(self, d: tuple) -> tuple:
        """(tail, head) of the directed edge d = (edge, sign)."""
        e, s = d
        a, b = self.edges[e]
        return (a, b) if s > 0 else (b, a)

    def walk_vertices(self, t: int) -> list:
        return [self.directed_ends(d)[0] for d in self.triangles[t]]

    def triangle_edges(self, t: int) -> list:
        return [d[0] for d in self.triangles[t]]

    @functools.cached_property
    def _corners_at(self) -> dict:
        """v -> all triangle corners at v as (triangle, incoming, outgoing),
        in triangle order, listed for every vertex in one pass."""
        table = {w: [] for w in self.vertices}
        edges = self.edges
        for t, walk in enumerate(self.triangles):
            for i, d in enumerate(walk):
                e, s = walk[(i + 1) % 3]      # the corner is at this side's tail
                a, b = edges[e]
                table[a if s > 0 else b].append((t, d[0], e))
        return table

    def corners_at(self, v):
        return self._corners_at[v]

    @functools.cached_property
    def _edge_sides(self) -> list:
        """e -> the (triangle, position) pairs whose walk uses edge e."""
        table = [[] for _ in self.edges]
        for t, walk in enumerate(self.triangles):
            for k, (ei, _s) in enumerate(walk):
                table[ei].append((t, k))
        return table

    def edge_sides(self, e: int) -> list:
        return self._edge_sides[e]

    @functools.cached_property
    def _half_edges(self) -> dict:
        """v -> the sorted half-edges (edge, end) at v."""
        table = {}
        for e, ends in enumerate(self.edges):
            for end in (0, 1):
                table.setdefault(ends[end], []).append((e, end))
        for half in table.values():
            half.sort()
        return table

    def half_edges_at(self, v) -> list:
        return self._half_edges.get(v, [])

    @functools.cached_property
    def _sectors(self) -> dict:
        """v -> the triangle occupying each rotation sector (rot[i] ->
        rot[i+1]) at v."""
        table = {}
        for v, rot in self.rotations.items():
            corners = self.corners_at(v)
            sectors = []
            used = [False] * len(corners)
            for pair in map(set, zip(rot, rot[1:] + rot[:1])):
                pick = next((j for j, (_t, e_in, e_out) in enumerate(corners)
                             if not used[j] and {e_in, e_out} == pair), None)
                if pick is None:
                    raise InvalidSurface(f"rotation sector at {v} matches no corner")
                used[pick] = True
                sectors.append(corners[pick][0])
            table[v] = sectors
        return table

    def sector_triangles(self, v) -> list:
        return self._sectors[v]

    def rotation_succ(self, v, e: int) -> int:
        rot = self.rotations[v]
        return rot[(rot.index(e) + 1) % len(rot)]

    def rotation_pred(self, v, e: int) -> int:
        rot = self.rotations[v]
        return rot[(rot.index(e) - 1) % len(rot)]

    @property
    def euler(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    # -- validation ---------------------------------------------------------

    def validate(self) -> list:
        """Every violated invariant, as strings; empty means valid.

        One pass over the edges lists each vertex's edges, and one over
        the triangles checks each walk (a side naming no edge, closure, a
        repeated edge), counts the sides on every edge and collects each
        vertex's corners as unordered edge pairs.  Each rotation is then
        compared with its vertex's edges and corner pairs; connectivity
        and orientability come last."""
        problems = []
        vertices, edges = self.vertices, self.edges
        incident = {v: [] for v in vertices}     # v -> its edges, ascending
        if len(incident) != len(vertices):
            problems.append("duplicate vertex ids")
        for e, (a, b) in enumerate(edges):
            if a == b:
                problems.append(f"loop edge {e} at vertex {a}")
            if a in incident and b in incident:
                incident[a].append(e)
                incident[b].append(e)
            else:
                problems.append(f"edge {e} references unknown vertex")
        if problems:
            return problems

        n = len(edges)
        side_count = [0] * n
        fans = {v: [] for v in vertices}   # v -> its corners' pairs, lo * n + hi
        for t, walk in enumerate(self.triangles):
            if len(walk) == 3:
                (e0, s0), (e1, s1), (e2, s2) = walk
                if 0 <= e0 < n and 0 <= e1 < n and 0 <= e2 < n:
                    side_count[e0] += 1
                    side_count[e1] += 1
                    side_count[e2] += 1
                    tail0, head0 = edges[e0] if s0 > 0 else edges[e0][::-1]
                    tail1, head1 = edges[e1] if s1 > 0 else edges[e1][::-1]
                    tail2, head2 = edges[e2] if s2 > 0 else edges[e2][::-1]
                    if head0 != tail1 or head1 != tail2 or head2 != tail0:
                        problems.append(f"triangle {t} boundary walk does not close")
                    if e0 == e1 or e1 == e2 or e2 == e0:
                        problems.append(f"triangle {t} repeats an edge")
                    # the corner between two sides is at the second's tail
                    fans[tail1].append(e0 * n + e1 if e0 < e1 else e1 * n + e0)
                    fans[tail2].append(e1 * n + e2 if e1 < e2 else e2 * n + e1)
                    fans[tail0].append(e2 * n + e0 if e2 < e0 else e0 * n + e2)
                    continue
                problems.extend(f"triangle {t} names edge {e}, which the triangulation lacks"
                                for e in (e0, e1, e2) if not 0 <= e < n)
            else:
                problems.append(f"triangle {t} does not have 3 sides")
            for e, _s in walk:       # the sides that name an edge still count
                if 0 <= e < n:
                    side_count[e] += 1
        for e, k in enumerate(side_count):
            if k != 2:
                problems.append(f"edge {e} lies on {k} triangle sides, expected 2")
        if problems:
            return problems

        # rotations realize the corner structure at every vertex
        for v in vertices:
            rot = self.rotations.get(v)
            if rot is None:
                problems.append(f"missing rotation at vertex {v}")
                continue
            if sorted(rot) != incident[v]:
                problems.append(f"rotation at {v} is not a cyclic order of its edge ends")
                continue
            ring = [a * n + b if a < b else b * n + a for a, b in zip(rot, [*rot[1:], *rot[:1]])]
            if sorted(fans[v]) != sorted(ring):
                problems.append(f"rotation at {v} disagrees with the triangle fan")

        if not self.is_connected():
            problems.append("complex is not connected")
        if problems:
            return problems

        try:
            classify_surface(self.euler, self.orientability())
        except InvalidChi:
            problems.append("V-E+F matches no closed surface")
        return problems

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        adj = {v: [] for v in self.vertices}
        for (a, b) in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

    # -- orientation machinery ----------------------------------------------

    def triangle_signs(self):
        """Consistent orientation signs per triangle, or None if impossible.

        Sign +1 keeps the stored walk, -1 reverses it.  Two triangles are
        compatible across a shared edge iff they traverse it oppositely.
        """
        triangles, edge_sides = self.triangles, self.edge_sides
        signs = {}
        for seed in range(len(triangles)):
            if seed in signs:
                continue
            signs[seed] = 1
            stack = [seed]
            while stack:
                t = stack.pop()
                sign = signs[t]
                for e, _s in triangles[t]:
                    (t1, k1), (t2, k2) = edge_sides(e)
                    # opposite traversal <-> same sign
                    want = sign if triangles[t1][k1][1] != triangles[t2][k2][1] else -sign
                    other = t2 if t1 == t else t1
                    if other not in signs:
                        signs[other] = want
                        stack.append(other)
                    elif signs[other] != want:
                        return None
        return signs

    def orientability(self) -> bool:
        return self.triangle_signs() is not None

    def edge_compatible(self, e: int) -> bool:
        """Whether the stored rotations at the two ends of e induce the
        same local orientation on the two-triangle band around e.

        Evaluated through one flanking triangle's own walk, so it is
        well defined even at degree-2 vertices.
        """
        (t1, k1) = self.edge_sides(e)[0]
        walk = self.triangles[t1]
        d = walk[k1]
        tail, head = self.directed_ends(d)
        e_prev = walk[(k1 - 1) % 3][0]   # t1's edge arriving at tail
        e_next = walk[(k1 + 1) % 3][0]   # t1's edge leaving head
        at_tail = self.rotation_succ(tail, e) == e_prev
        at_head = self.rotation_succ(head, e_next) == e
        return at_tail == at_head

    def rotation_ccw_bits(self, signs=None):
        """Per-vertex bit: 0 if the stored rotation is counterclockwise for
        the orientation given by triangle signs, 1 if clockwise.

        Raises InvalidSurface when corners at one vertex disagree (data
        does not describe a surface) or when nonorientable.
        """
        if signs is None:
            signs = self.triangle_signs()
        if signs is None:
            raise InvalidSurface("nonorientable triangulation has no global rotation sense")
        bits = {}
        for t, walk in enumerate(self.triangles):
            dirs = walk if signs[t] > 0 else [(e, -s) for (e, s) in reversed(walk)]
            for i in range(3):
                e_in = dirs[i]
                e_out = dirs[(i + 1) % 3]
                v = self.directed_ends(e_in)[1]
                # ccw rotation crosses the corner from the outgoing side
                # to the incoming side
                bit = 0 if self.rotation_succ(v, e_out[0]) == e_in[0] else 1
                if self.rotation_pred(v, e_out[0]) != e_in[0] and bit == 1:
                    raise InvalidSurface(f"corner of triangle {t} at {v} not adjacent in rotation")
                if v in bits and bits[v] != bit:
                    raise InvalidSurface(f"inconsistent rotation sense at vertex {v}")
                bits[v] = bit
        return bits

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": "triangulation",
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "triangles": [[[e, s] for (e, s) in walk] for walk in self.triangles],
            "rotations": {str(v): list(rot) for v, rot in self.rotations.items()},
        }

    @staticmethod
    def from_json(obj: dict) -> "Triangulation":
        """Parse a triangulation document.  Types, arities and references
        (vertex ids, edge indices, signs) are checked here; the surface
        conditions are validate()'s."""
        if not isinstance(obj, dict) or obj.get("type") != "triangulation":
            raise InvalidSurface("not a triangulation document")
        what = "triangulation"
        vertices = [doc_id(v, f"{what} vertex")
                    for v in doc_field(obj, "vertices", list, what)]
        by_name = {str(v): v for v in vertices}

        def vertex(v):
            if str(doc_id(v, f"{what} edge end")) not in by_name:
                raise InputError(f"{what}: edge names unknown vertex {v!r}")
            return by_name[str(v)]

        edges = []
        for e in doc_field(obj, "edges", list, what):
            if not isinstance(e, list) or len(e) != 2:
                raise InputError(f"{what}: edge {e!r} is not a vertex pair")
            edges.append((vertex(e[0]), vertex(e[1])))

        def edge(e, what_e):
            e = doc_int(e, what_e)
            if not 0 <= e < len(edges):
                raise InputError(f"{what_e}: no edge {e}")
            return e

        triangles = []
        for walk in doc_field(obj, "triangles", list, what):
            if not isinstance(walk, list):
                raise InputError(f"{what}: triangle {walk!r} is not a list")
            sides = [doc_pair(side, f"{what} triangle side") for side in walk]
            for e, sign in sides:
                edge(e, f"{what} triangle side")
                if sign not in (1, -1):
                    raise InputError(f"{what}: triangle side sign {sign} is not +1/-1")
            triangles.append(sides)
        rotations = {}
        for k, rot in doc_field(obj, "rotations", dict, what).items():
            if k not in by_name:
                raise InputError(f"{what}: rotation at unknown vertex {k!r}")
            if not isinstance(rot, list):
                raise InputError(f"{what}: rotation at {k} is not a list")
            rotations[by_name[k]] = [edge(e, f"{what} rotation") for e in rot]
        return Triangulation(vertices=vertices, edges=edges, triangles=triangles,
                             rotations=rotations)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# --------------------------------------------------------------------------
# Construction helpers and built-in complexes


def derive_rotations(tri: Triangulation) -> Triangulation:
    """tri with its rotations derived from its triangle corner fans.

    The corners at v (corners_at, listed for every vertex in one pass over
    the triangles) form a 2-regular multigraph on the edge ends at v; a
    valid closed surface makes it a single cycle, which becomes the
    rotation (in the direction of v's first corner).
    """
    incident = {}        # vertex -> the edges with an end there
    for e, (a, b) in enumerate(tri.edges):
        incident.setdefault(a, []).append(e)
        incident.setdefault(b, []).append(e)
    rotations = {}
    for v in tri.vertices:
        corners = tri.corners_at(v)
        if not corners:
            raise InvalidSurface(f"vertex {v} has no incident triangle corners")
        slots = {e: [] for e in incident.get(v, ())}   # edge -> its corners
        for i, (_t, x, y) in enumerate(corners):
            slots[x].append(i)
            slots[y].append(i)
        if any(len(s) != 2 for s in slots.values()):
            raise InvalidSurface(f"vertex link at {v} is not a cycle")
        _t, first, cur = corners[0]
        cycle = [first, cur]
        used = [False] * len(corners)
        used[0] = True
        i = 0
        while len(cycle) < len(slots):
            a, b = slots[cur]
            i = b if a == i else a      # the corner at cur not just left
            if used[i]:
                raise InvalidSurface(f"vertex link at {v} is not a single cycle")
            used[i] = True
            _t, x, y = corners[i]
            cur = y if x == cur else x
            cycle.append(cur)
        # closing corner must exist and be the one unused
        if used.count(False) != 1:
            raise InvalidSurface(f"vertex link at {v} is not a single cycle")
        _t, x, y = corners[used.index(False)]
        if {x, y} != {cur, first} and len(slots) > 1:
            raise InvalidSurface(f"vertex link at {v} does not close")
        rotations[v] = cycle
    return Triangulation(tri.vertices, tri.edges, tri.triangles, rotations)


def complex_from_faces(face_lists) -> Triangulation:
    """Build a triangulation from vertex triples, deriving edges, walks
    and rotations.  Each unordered vertex pair may carry several edges
    only if faces reference them via explicit edge indices; plain vertex
    triples assume simple edges."""
    vertices = sorted({v for f in face_lists for v in f})
    edge_idx = {}
    edges = []
    for f in face_lists:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            key = tuple(sorted((a, b)))
            if key not in edge_idx:
                edge_idx[key] = len(edges)
                edges.append(key)
    triangles = []
    for f in face_lists:
        walk = []
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            e = edge_idx[tuple(sorted((a, b)))]
            walk.append((e, 1 if edges[e] == (a, b) else -1))
        triangles.append(walk)
    return derive_rotations(Triangulation(vertices, edges, triangles))


def _sphere_tetra() -> Triangulation:
    return complex_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def _rp2_6() -> Triangulation:
    caps = [(0, i, i % 5 + 1) for i in range(1, 6)]
    middles = [(1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return complex_from_faces(caps + middles)


def _torus_7() -> Triangulation:
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    return complex_from_faces(faces)


def _klein_8() -> Triangulation:
    """A minimal (8-vertex) Klein bottle triangulation."""
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4),
             (1, 2, 5), (1, 3, 6), (1, 5, 4), (1, 4, 6),
             (2, 4, 6), (2, 5, 3), (2, 3, 7), (2, 6, 7),
             (3, 4, 7), (3, 5, 6), (4, 5, 7), (5, 6, 7)]
    return complex_from_faces(faces)


def _genus2() -> Triangulation:
    """Connected sum of two 7-vertex tori: each loses face (0, 1, 3), and
    the second (vertices shifted by 7) is glued on along that boundary."""
    torus = _torus_7()
    faces = [tuple(vs) for vs in map(torus.walk_vertices, range(len(torus.triangles)))
             if set(vs) != {0, 1, 3}]
    glue = {7: 0, 8: 1, 10: 3}
    return complex_from_faces(faces + [tuple(glue.get(v + 7, v + 7) for v in vs)
                                       for vs in faces])


_BUILDERS = {
    "sphere_tetra": _sphere_tetra,
    "rp2_6": _rp2_6,
    "torus_7": _torus_7,
    "klein_8": _klein_8,
    "genus2": _genus2,
}
BUILTIN_NAMES = tuple(_BUILDERS)


@functools.cache
def builtin_triangulation(name: str) -> Triangulation:
    """Built-in triangulation `name`: one frozen object, shared by all callers."""
    if name not in _BUILDERS:
        raise UnknownName(f"unknown triangulation {name!r}; "
                          f"choose from {sorted(_BUILDERS)}")
    tri = _BUILDERS[name]()
    problems = tri.validate()
    if problems:
        raise InvalidSurface(f"builtin {name} failed validation: {problems}")
    return tri
