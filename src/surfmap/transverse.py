"""Combinatorial model of a surface map transversal to the target skeleton.

The preimage graph sits in the domain as a signed ribbon graph: darts with
an edge pairing, a rotation (cyclic dart order per vertex), and a sign per
edge saying whether the edge's band preserves the local sheet orientation.
Every dart is labeled by a half-edge of the target; the complement of the
graph is a list of regions, each an abstract compact surface attached
along boundary circuits of the ribbon structure (or along sides of
isolated circles, which carry no vertices).  Regions are frozen: a map
and its copies share them, and an edit replaces a region.  Isolated
circles are kept in a dict under ids that never change, so removing one
renumbers nothing; documents, normalize traces and messages give a
circle's position in that dict instead, and to_json/from_json convert.

Boundary circuits are traced on side-end tokens (dart, side).  A region
stores each of its circuits as a token sequence whose direction is the
one induced by the region's reference orientation (of its planar part,
for nonorientable kinds); this direction data is what makes orientability
of the domain, surgery compatibility and factorization directions
computable.

Everything that depends only on the target and the five dart tables
(pairing, rotation, edge_sign, vertex_label, dart_label) lives in one
RibbonFacts object per map: vertex ids, traced circuits, local signs,
edge keys, V - E, preimage counts, graph components and band-forced chart
flips, the verdict of validate_map's dart-level sections, and per-circuit
results keyed by the circuit's token tuple (and region label where it
matters): the boundary-walk test, the corner condition, the corners'
orientation constraints and classify_circuit.  A copy inherits the facts
of its original, and a map uses inherited facts only after its own tables
compare equal (plain dict ==) to the snapshot they were computed from;
the comparison runs once per map and again after invalidate_caches().
What a region's checks find on their own (RegionChecks: walk keys,
isolated sides, its problems, corner problems, classes, domain-solve
ties) is memoized in the facts per region object, so a check computes it
only for regions it has not seen; what spans regions (tiling, the side
coherence of edges and circles, parity) is put together from those
results on every validate_map call.  The connectivity and orientation of
the domain come from one solve (domain_solve) per map state: it is
memoized on the map together with the facts and a snapshot of the
regions and isolated circles, and runs again once any of them changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (BadKind, Disconnected, DisconnectedCover,
                     InconsistentParity, InputError, InternalInconsistency,
                     InvalidSurface, NotOrientable, UnknownName)
from .surfaces import (SurfaceKind, Triangulation, builtin_triangulation,
                       classify_surface, connected_sum_kind, doc_field, doc_id,
                       doc_int, doc_pair)
from . import covers as covers_mod
from .unionfind import ParityUF


# --------------------------------------------------------------------------
# Data model


@dataclass(frozen=True)
class IsolatedCircle:
    edge: int   # target edge whose interior the circle maps into


@dataclass(frozen=True)
class RibbonCircuit:
    """Alternating token sequence (band step, corner step, ...); tokens are
    (dart, side) pairs, side 0/1 being the two ends of a dart's band side."""
    seq: tuple

    def token_set(self):
        return frozenset(self.seq)

    def reversed(self):
        return RibbonCircuit(tuple(reversed(self.seq)))


def corners(seq: tuple):
    """The corner steps (a, b) of an alternating boundary walk: a at each
    odd position, b the token after it."""
    return zip(seq[1::2], seq[2::2] + seq[:1])


def successor_map(circuits) -> dict:
    """token -> next token along each ribbon circuit among `circuits`
    (isolated sides are skipped)."""
    succ = {}
    for c in circuits:
        if isinstance(c, RibbonCircuit):
            succ.update(zip(c.seq, c.seq[1:] + c.seq[:1]))
    return succ


@dataclass(frozen=True)
class IsoSide:
    circle: int       # isolated circle id (a key of TransverseMap.isolated)
    side: int         # 0 or 1
    direction: int    # +1: the region-induced direction equals the circle's own


@dataclass(frozen=True)
class Region:
    """Frozen, so maps and the per-region check memo share a region
    object until a move replaces it."""
    label: int                 # target triangle
    kind: SurfaceKind          # boundary == len(circuits)
    circuits: tuple = ()


@dataclass
class TransverseMap:
    target: Triangulation
    pairing: dict              # dart -> dart (fixed-point-free involution)
    rotation: dict             # dart -> next dart at the same vertex
    edge_sign: dict            # edge key (min dart of the pair) -> +1/-1
    vertex_label: dict         # dart -> target vertex (constant on rotation orbits)
    dart_label: dict           # dart -> (target edge, end)
    # circle id -> IsolatedCircle; a circle's position in this order is
    # its index in documents, traces and messages, and ids never change
    isolated: dict = field(default_factory=dict)
    regions: list = field(default_factory=list)    # list[Region]
    # RibbonFacts candidate (inherited through copy()) and whether this
    # map's tables were compared equal to its snapshot since the last
    # invalidate_caches()
    _facts: object = field(default=None, init=False, repr=False, compare=False)
    _facts_checked: bool = field(default=False, init=False, repr=False,
                                 compare=False)
    # (facts, region state, invariants) recorded by a move's self-check
    _checked: tuple = field(default=None, init=False, repr=False, compare=False)
    # (facts, region state, DomainSolve) of the last domain_solve
    _solved: tuple = field(default=None, init=False, repr=False, compare=False)

    # -- elementary structure -------------------------------------------------

    def ribbon_facts(self) -> "RibbonFacts":
        """The facts of this map's dart tables: the inherited ones when the
        tables still equal their snapshot, otherwise freshly started."""
        if not self._facts_checked:
            if self._facts is None or not self._facts.matches(self):
                self._facts = RibbonFacts(self)
            self._facts_checked = True
        return self._facts

    def edge_key(self, d: int) -> int:
        return min(d, self.pairing[d])

    def edge_keys(self):
        """Sorted edge keys (a shared list; do not modify)."""
        return self.ribbon_facts().edge_keys

    def vertex_of(self, d: int) -> int:
        """Canonical vertex id: minimal dart of the rotation orbit."""
        return self.ribbon_facts().vertex_of[d]

    def vertex_darts(self, d: int) -> list:
        """Darts at d's vertex in rotation order, starting at the rep."""
        facts = self.ribbon_facts()
        return facts.vertex_darts(facts.vertex_of[d])

    def vertex_reps(self) -> list:
        """Sorted vertex ids (a shared list; do not modify)."""
        return self.ribbon_facts().vertex_reps

    def invalidate_caches(self):
        """Call after changing a dart table in place: the next use of the
        ribbon facts compares the tables with the snapshot again."""
        self._facts_checked = False

    # -- token walking ----------------------------------------------------------

    def band_step(self, token):
        return self.ribbon_facts().band_step(token)

    def trace_circuits(self):
        """All boundary circuits of the ribbon graph, each an alternating
        token tuple starting with a band step from its minimal token
        (a shared list; do not modify)."""
        return self.ribbon_facts().trace_circuits

    # -- derived labels -----------------------------------------------------------

    def label_edge(self, d: int) -> int:
        return self.dart_label[d][0]

    def local_signs(self):
        """Per vertex rep: +1 if the dart labels in rotation order read the
        target rotation forward, -1 if backward, None if neither."""
        return self.ribbon_facts().local_signs

    # -- region-side structure ------------------------------------------------------

    def add_circle(self, edge: int) -> int:
        """Add an isolated circle over `edge`, last in order, under an id
        above every id in use; return that id."""
        cid = max(self.isolated, default=-1) + 1
        self.isolated[cid] = IsolatedCircle(edge)
        return cid

    def circle_positions(self) -> dict:
        """circle id -> position in `isolated`."""
        return {cid: i for i, cid in enumerate(self.isolated)}

    def region_of_token(self):
        """token -> region index, from the stored circuits."""
        out = {}
        for ri, reg in enumerate(self.regions):
            for c in reg.circuits:
                if isinstance(c, RibbonCircuit):
                    for tok in c.seq:
                        out[tok] = ri
        return out

    def stored_direction_bits(self):
        """(token -> successor token) along each stored circuit."""
        return successor_map(c for reg in self.regions for c in reg.circuits)

    def region_state(self) -> tuple:
        """A snapshot of the region list and the isolated circles (shallow:
        regions and circles are frozen): what the memoized checks are
        keyed on besides the facts.  Compare it with has_state."""
        return list(self.regions), dict(self.isolated)

    def has_state(self, state: tuple) -> bool:
        """Whether the regions and circles equal a region_state() snapshot
        (regions shared with it compare by identity)."""
        return state[0] == self.regions and state[1] == self.isolated

    def copy(self) -> "TransverseMap":
        """Independent tables, region list and circle dict, sharing the
        frozen regions and circles; the ribbon facts are passed on and
        adopted once the copy's tables are seen to equal their snapshot."""
        out = TransverseMap(
            target=self.target,
            pairing=dict(self.pairing),
            rotation=dict(self.rotation),
            edge_sign=dict(self.edge_sign),
            vertex_label=dict(self.vertex_label),
            dart_label=dict(self.dart_label),
            isolated=dict(self.isolated),
            regions=list(self.regions),
        )
        out._facts = self._facts
        return out

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        position = self.circle_positions()
        n = len(position)

        def circ(c):
            if isinstance(c, RibbonCircuit):
                return {"kind": "ribbon", "seq": [list(t) for t in c.seq]}
            # a dangling id is written out of range, so it stays dangling
            cid = c.circle
            index = position.get(cid, n + cid if 0 <= cid < n else cid)
            return {"kind": "iso", "index": index, "side": c.side,
                    "direction": c.direction}
        return {
            "type": "transverse_map",
            "target": self.target.to_json(),
            "pairing": {str(d): p for d, p in sorted(self.pairing.items())},
            "rotation": {str(d): r for d, r in sorted(self.rotation.items())},
            "edge_sign": {str(k): s for k, s in sorted(self.edge_sign.items())},
            "vertex_label": {str(d): v for d, v in sorted(self.vertex_label.items())},
            "dart_label": {str(d): list(l) for d, l in sorted(self.dart_label.items())},
            "isolated": [{"edge": c.edge} for c in self.isolated.values()],
            "regions": [{"label": r.label, "kind": r.kind.to_json(),
                         "circuits": [circ(c) for c in r.circuits]}
                        for r in self.regions],
        }

    @staticmethod
    def from_json(obj: dict) -> "TransverseMap":
        """Parse a map document.  Types, arities and the target are checked
        here (malformed input raises InputError); the map conditions are
        validate_map's."""
        if not isinstance(obj, dict) or obj.get("type") != "transverse_map":
            raise InputError("not a transverse_map document")
        what = "transverse_map"
        target = Triangulation.from_json(doc_field(obj, "target", dict, what))
        problems = target.validate()
        if problems:
            raise InputError(f"{what}: invalid target: {problems[:4]}")
        vmap = {str(v): v for v in target.vertices}

        def table(key, value):
            return {doc_int(d, f"{what} {key} dart"): value(v, f"{what} {key}")
                    for d, v in doc_field(obj, key, dict, what).items()}

        def circ(c):
            # a document's circle index is the circle's id
            kind = doc_field(c, "kind", str, f"{what} circuit")
            if kind == "ribbon":
                seq = doc_field(c, "seq", list, f"{what} circuit")
                return RibbonCircuit(tuple(doc_pair(t, f"{what} circuit token")
                                           for t in seq))
            if kind == "iso":
                return IsoSide(*(doc_field(c, k, int, f"{what} circuit")
                                 for k in ("index", "side", "direction")))
            raise InputError(f"{what}: unknown circuit kind {kind!r}")

        def region(r):
            where = f"{what} region"
            return Region(doc_field(r, "label", int, where),
                          SurfaceKind.from_json(doc_field(r, "kind", dict, where)),
                          tuple(circ(c) for c in doc_field(r, "circuits", list, where)))

        return TransverseMap(
            target=target,
            pairing=table("pairing", doc_int),
            rotation=table("rotation", doc_int),
            edge_sign=table("edge_sign", doc_int),
            vertex_label=table("vertex_label",
                               lambda v, w: vmap.get(str(doc_id(v, w)), v)),
            dart_label=table("dart_label", doc_pair),
            isolated={i: IsolatedCircle(doc_field(c, "edge", int,
                                                  f"{what} isolated circle"))
                      for i, c in enumerate(doc_field(obj, "isolated", list, what))},
            regions=[region(r) for r in doc_field(obj, "regions", list, what)],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# --------------------------------------------------------------------------
# Circuit classification


@dataclass(frozen=True)
class CircuitClass:
    variant: str               # "essential" | "isolated_side" | "irregular"
    index: int = 0
    direction: int = 0


_ISOLATED_SIDE = CircuitClass("isolated_side")


def classify_circuit(tm: TransverseMap, region: Region, circuit) -> CircuitClass:
    if isinstance(circuit, IsoSide):
        return _ISOLATED_SIDE
    return tm.ribbon_facts().circuit_class(region.label, circuit.seq)


# --------------------------------------------------------------------------
# Ribbon facts


class RibbonFacts:
    """The facts that depend only on the target and the five dart tables
    (pairing, rotation, edge_sign, vertex_label, dart_label).

    The object holds its own snapshot of the tables it describes.  A map
    uses it only after its tables compare equal to that snapshot (plain
    dict ==, in TransverseMap.ribbon_facts); copies inherit it, so a move
    that leaves the dart tables alone reuses every fact here.  Each fact
    is computed on first use:

    * vertex_of, rot_inv, trace_circuits, local_signs, edge_keys,
      vertex_reps, V - E and the preimage count per target vertex;
    * the verdict of validate_map's dart-level sections;
    * the vertex components of the graph and the vertex chart flips that
      its band signs force;
    * per stored circuit, keyed by its token tuple (and by the region
      label where the answer depends on it): the boundary-walk test, the
      corner condition, the orientation constraints of its corners and
      classify_circuit;
    * per region object, its RegionChecks (region_checks);
    * per assignment of region labels to the traced circuits, the side
      coherence of the edges (flank_problems).
    """

    def __init__(self, tm: TransverseMap):
        self.target = tm.target
        self.pairing = dict(tm.pairing)
        self.rotation = dict(tm.rotation)
        self.edge_sign = dict(tm.edge_sign)
        self.vertex_label = dict(tm.vertex_label)
        self.dart_label = dict(tm.dart_label)
        self._walks = {}       # token tuple -> walk_key result
        self._corners = {}     # (label, token tuple) -> corner problem or None
        self._classes = {}     # (label, token tuple) -> CircuitClass
        self._constraints = {}   # token tuple -> corner_constraints result
        self._regions = {}     # id(region) -> RegionChecks (holding the region)
        self._last_checks = None   # (region list snapshot, its RegionChecks)
        self._flank_memo = {}  # labels of the traced circuits -> flank problems

    def matches(self, tm: TransverseMap) -> bool:
        return (tm.target is self.target
                and tm.pairing == self.pairing
                and tm.rotation == self.rotation
                and tm.edge_sign == self.edge_sign
                and tm.vertex_label == self.vertex_label
                and tm.dart_label == self.dart_label)

    # -- structure --------------------------------------------------------------

    @cached_property
    def edge_keys(self) -> list:
        return sorted({min(d, p) for d, p in self.pairing.items()})

    @cached_property
    def rot_inv(self) -> dict:
        return {v: k for k, v in self.rotation.items()}

    @cached_property
    def vertex_of(self) -> dict:
        out = {}
        rotation = self.rotation
        for d0 in self.pairing:
            if d0 in out:
                continue
            orbit = [d0]
            cur = rotation[d0]
            while cur != d0:
                orbit.append(cur)
                cur = rotation[cur]
            rep = min(orbit)
            for x in orbit:
                out[x] = rep
        return out

    @cached_property
    def vertex_reps(self) -> list:
        return sorted(set(self.vertex_of.values()))

    def vertex_darts(self, rep: int) -> list:
        """Darts at the vertex `rep` in rotation order, starting at rep."""
        orbit = [rep]
        cur = self.rotation[rep]
        while cur != rep:
            orbit.append(cur)
            cur = self.rotation[cur]
        return orbit

    @cached_property
    def graph_euler(self) -> int:
        return len(self.vertex_reps) - len(self.edge_keys)

    @cached_property
    def preimage_counts(self) -> dict:
        """Target vertex -> number of preimage vertices labeled by it."""
        counts = {P: 0 for P in self.target.vertices}
        for vrep in self.vertex_reps:
            P = self.vertex_label[vrep]
            if P in counts:
                counts[P] += 1
        return counts

    @cached_property
    def vertex_charts(self) -> tuple:
        """(charts, components, consistent): charts maps each vertex id to
        (number of its connected component in the graph, chart flip
        relative to that component) in a solution of the band-sign
        constraints, which are consistent when `consistent` is true;
        the components are numbered 0..components-1."""
        node = {v: i for i, v in enumerate(self.vertex_reps)}
        vertex_of = self.vertex_of
        uf = ParityUF(len(node))
        for k in self.edge_keys:
            uf.union(node[vertex_of[k]], node[vertex_of[self.pairing[k]]],
                     0 if self.edge_sign[k] > 0 else 1)
        roots = {}
        charts = {}
        for v, i in node.items():
            root, flip = uf.find(i)
            charts[v] = (roots.setdefault(root, len(roots)), flip)
        return charts, len(roots), uf.ok

    # -- token walking ------------------------------------------------------------

    def band_step(self, token):
        """Across a dart's band to the paired dart: a token (dart, side)
        keeps its side on a twisted band and swaps it on a plain one."""
        d, x = token
        d2 = self.pairing[d]
        return (d2, 1 - x) if self.edge_sign[min(d, d2)] > 0 else (d2, x)

    def corner_step(self, token):
        d, x = token
        if x == 1:
            return (self.rotation[d], 0)
        return (self.rot_inv[d], 1)

    @cached_property
    def trace_circuits(self) -> list:
        tokens = [(d, x) for d in sorted(self.pairing) for x in (0, 1)]
        seen = set()
        out = []
        for t0 in tokens:
            if t0 in seen:
                continue
            seq = []
            cur = t0
            while True:
                nxt = self.band_step(cur)
                seq.append(cur)
                seq.append(nxt)
                cur = self.corner_step(nxt)
                if cur == t0:
                    break
            start = seq.index(min(seq))
            if start % 2 == 1:
                # keep the band-step phase: walk the same direction but
                # begin at the minimal even-position token
                evens = [seq[i] for i in range(0, len(seq), 2)]
                start = seq.index(min(evens))
            seq = seq[start:] + seq[:start]
            out.append(RibbonCircuit(tuple(seq)))
            seen.update(seq)
        out.sort(key=lambda c: c.seq[0] if c.seq else (-1, -1))
        return out

    @cached_property
    def circuit_of_token(self) -> dict:
        """token -> index of the traced circuit through it."""
        return {tok: i for i, c in enumerate(self.trace_circuits) for tok in c.seq}

    @cached_property
    def edge_triangles(self) -> list:
        """Per target edge: the set of triangles at it."""
        T = self.target
        return [frozenset(t for t, _ in T.edge_sides(e)) for e in range(len(T.edges))]

    @cached_property
    def flanks(self) -> list:
        """Per edge key k: (k, traced circuit through (k, 0), traced
        circuit through (k, 1), the triangles at k's target edge)."""
        triangles = self.edge_triangles
        return [(k, self.circuit_of_token[(k, 0)], self.circuit_of_token[(k, 1)],
                 triangles[self.dart_label[k][0]])
                for k in self.edge_keys]

    @cached_property
    def local_signs(self) -> dict:
        out = {}
        for rep in self.vertex_reps:
            labels = [self.dart_label[d][0] for d in self.vertex_darts(rep)]
            rot = self.target.rotations.get(self.vertex_label[rep])
            out[rep] = None
            if rot is None or len(rot) != len(labels):
                continue
            m = len(rot)
            for shift in range(m):
                if all(labels[(shift + i) % m] == rot[i] for i in range(m)):
                    out[rep] = 1
                    break
            if out[rep] is None:
                rrot = list(reversed(rot))
                for shift in range(m):
                    if all(labels[(shift + i) % m] == rrot[i] for i in range(m)):
                        out[rep] = -1
                        break
        return out

    # -- dart-level validation ------------------------------------------------------

    @cached_property
    def table_problem(self):
        """The first violated dart-table axiom, or None.  Only when this
        is None are the rotation orbits (vertices) well defined."""
        darts = set(self.pairing)
        if set(self.rotation) != darts or set(self.dart_label) != darts \
                or set(self.vertex_label) != darts:
            return "dart tables disagree on the dart set"
        for d, p in self.pairing.items():
            if p == d or self.pairing.get(p) != d:
                return f"pairing is not a fixed-point-free involution at dart {d}"
        if sorted(self.rotation.values()) != sorted(darts):
            return "rotation is not a permutation of the darts"
        for d in darts:
            k = min(d, self.pairing[d])
            if self.edge_sign.get(k) not in (1, -1):
                return f"missing or bad sign for edge {k}"
        return None

    @cached_property
    def vertex_edge_problems(self) -> list:
        """Vertex-label, half-edge, fan-order, edge and band-sign problems
        (meaningful once table_problem is None)."""
        T = self.target
        problems = []
        local = self.local_signs
        for vrep in self.vertex_reps:
            vd = self.vertex_darts(vrep)
            P = self.vertex_label[vrep]
            if any(self.vertex_label[d] != P for d in vd):
                problems.append(f"vertex labels differ around vertex {vrep}")
                continue
            if P not in T.rotations:
                problems.append(f"vertex {vrep} labeled by unknown target vertex {P}")
                continue
            half_at_P = sorted((e, end) for e, (a, b) in enumerate(T.edges)
                               for end in (0, 1) if (a, b)[end] == P)
            labels = sorted(self.dart_label[d] for d in vd)
            if labels != half_at_P:
                problems.append(f"darts at vertex {vrep} do not biject onto "
                                f"the half-edges at {P}")
                continue
            if local[vrep] is None:
                problems.append(f"dart labels around vertex {vrep} do not read "
                                "the target rotation")

        # edge coherence and band sign coherence
        vertex_of = self.vertex_of
        for k in self.edge_keys:
            d1, d2 = k, self.pairing[k]
            e1, end1 = self.dart_label[d1]
            e2, end2 = self.dart_label[d2]
            if e1 != e2:
                problems.append(f"edge {k} carries two different target edges")
                continue
            s = self.edge_sign[k]
            l1 = local.get(vertex_of[d1])
            l2 = local.get(vertex_of[d2])
            if l1 is None or l2 is None:
                continue
            if vertex_of[d1] == vertex_of[d2]:
                problems.append(f"edge {k} is a loop")
                continue
            if (e1, end1) == (e2, end2):
                want = -l1 * l2
            else:
                want = l1 * l2 * (1 if T.edge_compatible(e1) else -1)
            if s != want:
                problems.append(f"edge {k} has sign {s}, band geometry forces {want}")
        return problems

    # -- per-circuit results ----------------------------------------------------------

    def walk_key(self, seq: tuple):
        """None when the token tuple is not an alternating boundary walk;
        otherwise the index of the traced circuit with the same token set,
        or that token set itself when no traced circuit has it."""
        try:
            return self._walks[seq]
        except KeyError:
            pass
        key = None
        if self._walk_ok(seq):
            tokens = frozenset(seq)
            i = self.circuit_of_token.get(seq[0])
            if i is not None and frozenset(self.trace_circuits[i].seq) == tokens:
                key = i
            else:
                key = tokens
        self._walks[seq] = key
        return key

    def _walk_ok(self, seq: tuple) -> bool:
        n = len(seq)
        if n == 0 or n % 2 != 0:
            return False
        for i in range(0, n, 2):
            if seq[i][0] not in self.pairing or seq[i + 1][0] not in self.pairing:
                return False
            if self.band_step(seq[i]) != seq[i + 1]:
                return False
            if self.corner_step(seq[i + 1]) != seq[(i + 2) % n]:
                return False
        return True

    def corner_problem(self, label: int, seq: tuple):
        """None, or how a boundary walk of a region labeled `label` breaks
        the corner condition."""
        key = (label, seq)
        try:
            return self._corners[key]
        except KeyError:
            pass
        T = self.target
        tri_edges = set(T.triangle_edges(label))
        out = None
        for a, b in corners(seq):
            # corner step between a and b at a's vertex
            ea = self.dart_label[a[0]][0]
            eb = self.dart_label[b[0]][0]
            P = self.vertex_label[a[0]]
            if ea not in tri_edges or eb not in tri_edges:
                out = "corner labels not on its triangle"
                break
            if P not in T.edges[ea] or P not in T.edges[eb]:
                out = "corner not at its vertex label"
                break
        self._corners[key] = out
        return out

    def corner_constraints(self, seq: tuple) -> frozenset:
        """The orientation constraints of a boundary walk's corners, as
        (component, bit): its region's reference flip is the component's
        flip xor bit."""
        try:
            return self._constraints[seq]
        except KeyError:
            pass
        charts = self.vertex_charts[0]
        out = set()
        n = len(seq)
        for i in range(1, n + 1, 2):
            a = seq[i % n]
            # corner step from a: type bit 0 when leaving side 1 (ccw)
            tbit = 0 if a[1] == 1 else 1
            component, flip = charts[self.vertex_of[a[0]]]
            out.add((component, flip ^ 1 ^ tbit))
        out = self._constraints[seq] = frozenset(out)
        return out

    def circuit_class(self, label: int, seq: tuple) -> CircuitClass:
        key = (label, seq)
        try:
            return self._classes[key]
        except KeyError:
            pass
        word = [self.dart_label[seq[i][0]][0] for i in range(0, len(seq), 2)]
        tri_word = self.target.triangle_edges(label)
        out = CircuitClass("irregular")
        n = len(word)
        if n % 3 == 0 and n > 0:
            k = n // 3
            for direction, base in ((1, tri_word), (-1, list(reversed(tri_word)))):
                pattern = base * k
                if any(all(word[i] == pattern[(i + shift) % n] for i in range(n))
                       for shift in range(3)):
                    out = CircuitClass("essential", k, direction)
                    break
        self._classes[key] = out
        return out


    # -- per-region results --------------------------------------------------------

    def region_checks(self, regions) -> list:
        """The RegionChecks of each region, computed on first use for each
        region object.  The memo keeps the region alive, so its id is not
        reused while the entry lives: a hit is the same frozen object.  The
        list for the last region list asked for is kept (a shared list; do
        not modify), so the checks of one map state build it once."""
        last = self._last_checks
        if last is not None and last[0] == regions:
            return last[1]
        memo = self._regions
        out = []
        for region in regions:
            checks = memo.get(id(region))
            if checks is None:
                checks = memo[id(region)] = RegionChecks(self, region)
            out.append(checks)
        self._last_checks = (list(regions), out)
        return out

    def flank_problems(self, labels: tuple) -> list:
        """The side-coherence problems of the edges when each traced
        circuit i is stored in a region labeled labels[i]: the regions
        flanking an edge are labeled by its two triangles."""
        try:
            return self._flank_memo[labels]
        except KeyError:
            pass
        out = []
        for k, c0, c1, want in self.flanks:
            sides = {labels[c0], labels[c1]}
            if sides != want:
                out.append(f"edge {k} flanked by regions labeled {sorted(sides)}, "
                           f"expected {sorted(want)}")
        self._flank_memo[labels] = out
        return out


class RegionChecks:
    """What one region's checks find on their own, for one RibbonFacts
    (which memoizes it by the region object, region_checks):

    * walk_keys: the traced circuit each stored ribbon circuit matches;
    * iso_sides: the (circle id, side) of each isolated side;
    * problems: what the region breaks by itself (kind against circuit
      count, label, side bit, boundary walks), and corner_problems: how
      its boundary walks break the corner condition, both as format
      strings taking the region's index;
    * ties: (component ties, circle ties) of the region's node in
      domain_solve, the distinct (graph component, bit) constraints of its
      boundary walks' corners and (circle id, bit) of its isolated sides,
      and needs_node: whether there are other than exactly one;
    * euler and orientable, of the region's kind;
    * classes(facts): classify_circuit's answers, on first use.

    A region labeled by an unknown triangle has its circuits left out.
    """

    __slots__ = ("region", "walk_keys", "iso_sides", "problems",
                 "corner_problems", "ties", "needs_node", "euler", "orientable",
                 "_classes")

    def __init__(self, facts: RibbonFacts, region: Region):
        self.region = region
        self.euler = region.kind.euler
        self.orientable = region.kind.orientable
        self._classes = None
        problems = []
        corner_problems = []
        keys = []
        sides = []
        components = set()
        circles = set()
        if region.kind.boundary != len(region.circuits):
            problems.append("region {} kind boundary count disagrees with its circuits")
        circuits = region.circuits
        label = region.label
        if not (0 <= label < len(facts.target.triangles)):
            problems.append("region {} labeled by unknown triangle")
            circuits = ()
        for pos, c in enumerate(circuits):
            if isinstance(c, IsoSide):
                if c.side in (0, 1):
                    sides.append((c.circle, c.side))
                else:
                    problems.append("region {} references a bad isolated side")
                circles.add((c.circle, c.side ^ (c.direction < 0)))
                continue
            key = facts.walk_key(c.seq)
            if key is None:
                problems.append(f"region {{}} circuit {pos} is not an "
                                "alternating boundary walk")
                continue
            if isinstance(key, int):
                keys.append(key)
            else:
                problems.append(f"region {{}} circuit {pos} does not match "
                                "any traced circuit")
            problem = facts.corner_problem(label, c.seq)
            if problem is not None:
                corner_problems.append(f"region {{}} circuit {pos} {problem}")
            components |= facts.corner_constraints(c.seq)
        self.walk_keys = tuple(keys)
        self.iso_sides = tuple(sides)
        self.problems = tuple(problems)
        self.corner_problems = tuple(corner_problems)
        self.ties = (tuple(components), tuple(circles))
        self.needs_node = len(components) + len(circles) != 1

    def classes(self, facts: RibbonFacts) -> tuple:
        """classify_circuit's answer for each circuit, in order."""
        if self._classes is None:
            label = self.region.label
            self._classes = tuple(
                _ISOLATED_SIDE if isinstance(c, IsoSide)
                else facts.circuit_class(label, c.seq)
                for c in self.region.circuits)
        return self._classes


# --------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)
    # (facts, RegionChecks per region) once the tiling holds
    _classified: tuple = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str):
        self.problems.append(msg)

    @cached_property
    def circuit_classes(self) -> dict:
        """(region idx, pos) -> CircuitClass, filled on first use; empty
        unless the stored circuits tile the traced ones."""
        if self._classified is None:
            return {}
        facts, entries = self._classified
        return {(ri, pos): cls for ri, checks in enumerate(entries)
                for pos, cls in enumerate(checks.classes(facts))}


def validate_map(tm: TransverseMap) -> ValidationReport:
    """Every violated invariant of the map.

    The dart-level sections (table axioms, vertices, edges and band signs)
    are read from the ribbon facts, and what each region finds on its own
    from its memoized RegionChecks.  What spans regions is put together on
    every call: the stored circuits and isolated sides must be the traced
    circuits and the circles' sides, each exactly once; the side coherence
    of the edges (memoized on the regions' labels) and of the circles; and
    the preimage parity."""
    rep = ValidationReport()
    T = tm.target
    facts = tm.ribbon_facts()

    if facts.table_problem is not None:
        rep.add(facts.table_problem)
        return rep
    isolated = tm.isolated
    for c in isolated.values():
        if not (0 <= c.edge < len(T.edges)):
            rep.add(f"isolated circle labeled by unknown edge {c.edge}")
            return rep
    if facts.vertex_edge_problems:
        rep.problems.extend(facts.vertex_edge_problems)
        return rep

    # tiling: each traced circuit and each side of a circle belongs to
    # exactly one region
    regions = tm.regions
    entries = facts.region_checks(regions)
    position = tm.circle_positions()
    stored = {}            # traced circuit index -> region index
    owner = {}             # (circle id, side) -> region index
    for ri, checks in enumerate(entries):
        if checks.problems:
            rep.problems.extend(problem.format(ri) for problem in checks.problems)
        for key in checks.walk_keys:
            if key in stored:
                rep.add(f"circuit stored twice (regions {stored[key]} and {ri})")
            stored[key] = ri
        for side in checks.iso_sides:
            if side[0] not in position:
                rep.add(f"region {ri} references a bad isolated side")
                continue
            if side in owner:
                rep.add(f"isolated side ({position[side[0]]},{side[1]}) used twice")
            owner[side] = ri
    n_traced = len(facts.trace_circuits)
    if len(stored) != n_traced:
        rep.problems.extend("a traced boundary circuit belongs to no region"
                            for i in range(n_traced) if i not in stored)
    if len(owner) != 2 * len(isolated):
        rep.problems.extend(f"isolated circle {i} side {side} belongs to no region"
                            for i, cid in enumerate(isolated) for side in (0, 1)
                            if (cid, side) not in owner)
    if rep.problems:
        return rep

    # corner condition; the classes are read on first use
    for ri, checks in enumerate(entries):
        if checks.corner_problems:
            rep.problems.extend(problem.format(ri)
                                for problem in checks.corner_problems)
    rep._classified = (facts, entries)

    # side coherence: regions flanking an edge or a circle are labeled by
    # its two triangles
    labels = [None] * n_traced
    for key, ri in stored.items():
        labels[key] = regions[ri].label
    rep.problems.extend(facts.flank_problems(tuple(labels)))
    for i, (cid, circle) in enumerate(isolated.items()):
        got = {regions[owner[(cid, 0)]].label, regions[owner[(cid, 1)]].label}
        want = facts.edge_triangles[circle.edge]
        if got != want:
            rep.add(f"isolated circle {i} flanked by regions labeled {sorted(got)}, "
                    f"expected {sorted(want)}")

    # mod-2 preimage parity agreement across target vertices
    parities = {c % 2 for c in facts.preimage_counts.values()}
    if len(parities) > 1:
        rep.add("preimage counts of target vertices have mixed parity")
    return rep


def require_valid(tm: TransverseMap, context: str = ""):
    rep = validate_map(tm)
    if not rep.ok:
        raise InternalInconsistency(f"{context}: {rep.problems[:4]}",
                                    context=context, problems=rep.problems[:4])
    return rep


# --------------------------------------------------------------------------
# Counts and invariants


def edge_count(tm: TransverseMap) -> int:
    """Edges of the preimage graph, isolated circles counting as one each."""
    return len(tm.edge_keys()) + len(tm.isolated)


def graph_euler(tm: TransverseMap) -> int:
    return tm.ribbon_facts().graph_euler


class DomainSolve:
    """The domain's connectivity and orientation constraints, solved, with
    the sums over the regions that chi_domain and domain_orientable add."""

    def __init__(self, uf: ParityUF, n_components: int, bands_ok: bool,
                 regions_euler: int, kinds_orientable: bool):
        self.components = uf.sets        # connected components of the domain
        # the orientation constraints have a solution and every region
        # kind is orientable
        self.orientable = bands_ok and uf.ok and kinds_orientable
        self.regions_euler = regions_euler
        self._uf = uf
        self._n_components = n_components

    @cached_property
    def chart_flips(self) -> tuple:
        """Per graph component: its chart flip in the solution."""
        return tuple(self._uf.find(c)[1] for c in range(self._n_components))


def domain_solve(tm: TransverseMap) -> DomainSolve:
    """Connectivity and orientation of the domain in one parity union-find.

    Nodes, in this order: the graph's vertex components (whose vertex
    flips the band signs fix, ribbon facts), the isolated circles, the
    regions.  A node's value is a chart flip, an isolated circle's own
    direction flip or a region's reference flip.  The corners of a ribbon
    circuit tie its region to its component (the facts' corner
    constraints); an isolated circle is tied to the region on each of its
    sides by that side's direction: a region whose flip equals the
    circle's induces the circle's own direction on side 0 and the opposite
    one on side 1.  Every tie is a constraint, so the classes are the
    components of the domain, and the domain is orientable when the
    system is consistent and every region kind is.  A region with exactly
    one distinct tie gets no node: it can neither join two classes nor
    contradict one.  The ties of a region are memoized in its RegionChecks.

    The result is memoized on the map, keyed by its ribbon facts and a
    snapshot of its regions and circles (region_state), so the checks of
    one map state share one solve and a map changed in place is solved
    again.  Meaningful for maps that pass validate_map.
    """
    facts = tm.ribbon_facts()
    memo = tm._solved
    if memo is not None and memo[0] is facts and tm.has_state(memo[1]):
        return memo[2]
    _charts, n_components, bands_ok = facts.vertex_charts
    circle_node = {cid: i for i, cid in enumerate(tm.isolated, n_components)}
    linked = []
    euler = 0
    kinds_orientable = True
    for checks in facts.region_checks(tm.regions):
        euler += checks.euler
        kinds_orientable = kinds_orientable and checks.orientable
        if checks.needs_node:
            linked.append(checks.ties)
    node = n_components + len(circle_node)
    uf = ParityUF(node + len(linked))
    union = uf.union
    for components, circles in linked:
        for component, bit in components:
            union(component, node, bit)
        for cid, bit in circles:
            union(circle_node[cid], node, bit)
        node += 1
    solve = DomainSolve(uf, n_components, bands_ok, euler, kinds_orientable)
    tm._solved = (facts, tm.region_state(), solve)
    return solve


def chi_domain(tm: TransverseMap) -> int:
    solve = domain_solve(tm)
    if solve.components > 1:
        raise Disconnected(f"domain has {solve.components} components")
    return graph_euler(tm) + solve.regions_euler


def domain_orientable(tm: TransverseMap) -> bool:
    return domain_solve(tm).orientable


def domain_kind(tm: TransverseMap) -> SurfaceKind:
    chi = chi_domain(tm)
    return classify_surface(chi, domain_orientable(tm))


def mod2_degree(tm: TransverseMap) -> int:
    counts = tm.ribbon_facts().preimage_counts
    parities = {c % 2 for c in counts.values()}
    if len(parities) > 1:
        raise InconsistentParity(f"preimage parities differ: {counts}")
    return parities.pop() if parities else 0


def signed_degree(tm: TransverseMap, orient_m: int = 1, orient_n: int = 1) -> int:
    """Signed preimage count over a target vertex, for chosen orientations
    given as +1/-1 flips of the canonical ones.  The canonical domain
    orientation is normalized so the identity-like vertex of least id
    counts +1."""
    if not tm.target.orientability():
        raise NotOrientable("target is not orientable")
    if not domain_orientable(tm):
        raise NotOrientable("domain is not orientable")
    signs = tm.target.triangle_signs()
    rot_bits = tm.target.rotation_ccw_bits(signs)
    chart_flips = domain_solve(tm).chart_flips
    charts = tm.ribbon_facts().vertex_charts[0]
    local = tm.local_signs()

    vreps = tm.vertex_reps()
    if not vreps:
        return 0
    base = {}
    for vrep in vreps:
        P = tm.vertex_label[vrep]
        component, rel = charts[vrep]
        flip = rel ^ chart_flips[component]
        base[vrep] = (-1) ** flip * local[vrep] * (-1) ** rot_bits[P]
    # canonical: least vertex counts +1
    norm = base[min(vreps)]
    sums = {P: 0 for P in tm.target.vertices}
    for vrep in vreps:
        sums[tm.vertex_label[vrep]] += base[vrep] * norm
    values = set(sums.values())
    if len(values) > 1:
        raise InternalInconsistency(f"signed counts differ across vertices: {sums}")
    return values.pop() * orient_m * orient_n


# --------------------------------------------------------------------------
# Constructors


def _assign_region_labels(tm: TransverseMap, circuits) -> list:
    """The target triangle of each circuit's disk region: the one whose
    corner fan matches every corner of the circuit.  Where several match
    (two triangles on the same three edges), the labels already given
    across the circuit's bands are excluded; circuits are visited in
    band-adjacency order, so a labeled neighbour is there to exclude."""
    T = tm.target
    circuit_of = {tok: i for i, c in enumerate(circuits) for tok in c.seq}
    labels = [None] * len(circuits)
    queued = set()
    for root in range(len(circuits)):
        if root in queued:
            continue
        queued.add(root)
        order = [root]
        for i in order:
            seq = circuits[i].seq
            cands = None
            for a, b in corners(seq):
                ea, eb = tm.label_edge(a[0]), tm.label_edge(b[0])
                here = {t for (t, x, y) in T.corners_at(tm.vertex_label[a[0]])
                        if {x, y} == {ea, eb}}
                cands = here if cands is None else cands & here
            across = [circuit_of[(d, 1 - x)] for d, x in seq]
            if cands and len(cands) > 1:
                cands = cands - {labels[k] for k in across}
            if not cands:
                raise InternalInconsistency("circuit corners match no triangle")
            labels[i] = min(cands)
            for k in across:
                if k not in queued:
                    queued.add(k)
                    order.append(k)
    return labels


def _disk_regions(tm: TransverseMap) -> list:
    """One disk region per traced circuit, labeled by its triangle."""
    circuits = tm.trace_circuits()
    return [Region(label, SurfaceKind(True, 0, 0, 1), (c,))
            for c, label in zip(circuits, _assign_region_labels(tm, circuits))]


def identity_map(tri: Triangulation) -> TransverseMap:
    """Preimage graph equal to the skeleton, one disk region per triangle."""
    problems = tri.validate()
    if problems:
        raise InvalidSurface(f"invalid target: {problems}")
    pairing = {}
    rotation = {}
    edge_sign = {}
    vertex_label = {}
    dart_label = {}

    def dart(e, end):
        return 2 * e + end

    for e, (a, b) in enumerate(tri.edges):
        pairing[dart(e, 0)] = dart(e, 1)
        pairing[dart(e, 1)] = dart(e, 0)
        dart_label[dart(e, 0)] = (e, 0)
        dart_label[dart(e, 1)] = (e, 1)
        vertex_label[dart(e, 0)] = a
        vertex_label[dart(e, 1)] = b
        edge_sign[dart(e, 0)] = 1 if tri.edge_compatible(e) else -1
    for P in tri.vertices:
        rot = tri.rotations[P]
        ds = [dart(e, 0 if tri.edges[e][0] == P else 1) for e in rot]
        for i, d in enumerate(ds):
            rotation[d] = ds[(i + 1) % len(ds)]

    tm = TransverseMap(tri, pairing, rotation, edge_sign,
                       vertex_label, dart_label, {}, [])
    tm.regions = _disk_regions(tm)
    require_valid(tm, "identity_map")
    return tm


def map_from_cover(cover) -> TransverseMap:
    """Pull the skeleton back through a branched covering: the lifted
    skeleton with one disk region per preimage piece of a triangle (a
    branch cycle of length i gives a single disk with an index-i circuit)."""
    cover.require_valid()
    if not covers_mod.cover_connected(cover):
        raise DisconnectedCover("total space is not connected")
    total, labels = covers_mod.assemble_total_space(cover, with_labels=True)
    vlab = labels["vertices"]
    elab = labels["edges"]

    keep_edges = sorted(e for e, lab in elab.items() if lab is not None)
    eidx = {e: i for i, e in enumerate(keep_edges)}

    pairing = {}
    rotation = {}
    edge_sign = {}
    vertex_label = {}
    dart_label = {}

    def dart(e_q, end):
        return 2 * eidx[e_q] + end

    for e_q in keep_edges:
        a, b = total.edges[e_q]
        e0 = elab[e_q]
        pairing[dart(e_q, 0)] = dart(e_q, 1)
        pairing[dart(e_q, 1)] = dart(e_q, 0)
        dart_label[dart(e_q, 0)] = (e0, 0)
        dart_label[dart(e_q, 1)] = (e0, 1)
        vertex_label[dart(e_q, 0)] = vlab[a]
        vertex_label[dart(e_q, 1)] = vlab[b]
        edge_sign[dart(e_q, 0)] = 1 if total.edge_compatible(e_q) else -1
    for v_q in total.vertices:
        if vlab.get(v_q) is None:
            continue   # cone center: interior branch point
        ds = []
        for e_q in total.rotations[v_q]:
            if elab[e_q] is None:
                continue
            end = 0 if total.edges[e_q][0] == v_q else 1
            ds.append(dart(e_q, end))
        for i, d in enumerate(ds):
            rotation[d] = ds[(i + 1) % len(ds)]

    tm = TransverseMap(cover.base, pairing, rotation, edge_sign,
                       vertex_label, dart_label, {}, [])
    tm.regions = _disk_regions(tm)
    require_valid(tm, "map_from_cover")

    chi = chi_domain(tm)
    if chi != covers_mod.cover_chi(cover):
        raise InternalInconsistency("domain Euler characteristic disagrees with the cover")
    if domain_orientable(tm) != total.orientability():
        raise InternalInconsistency("domain orientability disagrees with the total space")
    return tm


def add_pinch(tm: TransverseMap, region_index: int, closed_kind: SurfaceKind) -> TransverseMap:
    """Connected-sum a closed surface into one region (models precomposing
    with a map that collapses that summand minus a disk)."""
    if not closed_kind.is_closed() or closed_kind.euler >= 2:
        raise BadKind("pinch summand must be closed and not a sphere")
    if not (0 <= region_index < len(tm.regions)):
        raise BadKind(f"no region {region_index}")
    out = tm.copy()
    reg = out.regions[region_index]
    out.regions[region_index] = Region(reg.label,
                                       connected_sum_kind(reg.kind, closed_kind),
                                       reg.circuits)
    require_valid(out, "add_pinch")
    return out


def _fold_degree_zero() -> TransverseMap:
    """Sphere-to-sphere fold of vanishing degree: the target cut along one
    edge gives a disk; the domain is its double, two mirror copies glued
    along the cut, and the preimage graph is the doubled truncated skeleton."""
    tri = builtin_triangulation("sphere_tetra")
    e_cut = 0
    u, w = tri.edges[e_cut]

    pairing = {}
    rotation = {}
    edge_sign = {}
    vertex_label = {}
    dart_label = {}
    next_dart = [0]
    dart_ids = {}

    def dart(e, end, copy):
        key = (e, end, copy)
        if key not in dart_ids:
            dart_ids[key] = next_dart[0]
            next_dart[0] += 1
        return dart_ids[key]

    survivors = [z for z in tri.vertices if z not in (u, w)]
    for e, (a, b) in enumerate(tri.edges):
        if e == e_cut:
            continue
        ends_in = [x for x in (a, b) if x in (u, w)]
        if len(ends_in) == 0:
            for copy in (0, 1):
                d0, d1 = dart(e, 0, copy), dart(e, 1, copy)
                pairing[d0], pairing[d1] = d1, d0
                dart_label[d0], dart_label[d1] = (e, 0), (e, 1)
                vertex_label[d0], vertex_label[d1] = a, b
                edge_sign[min(d0, d1)] = 1 if tri.edge_compatible(e) else -1
        elif len(ends_in) == 1:
            y = b if a in (u, w) else a
            y_end = 0 if tri.edges[e][0] == y else 1
            d0, d1 = dart(e, y_end, 0), dart(e, y_end, 1)
            pairing[d0], pairing[d1] = d1, d0
            dart_label[d0] = dart_label[d1] = (e, y_end)
            vertex_label[d0] = vertex_label[d1] = y
            edge_sign[min(d0, d1)] = 1
        # both ends removed: would double to an isolated circle; the
        # tetrahedron has no parallel edges, so nothing to do

    for z in survivors:
        rot = tri.rotations[z]
        for copy in (0, 1):
            seq = rot if copy == 0 else list(reversed(rot))
            ds = []
            for e in seq:
                if e == e_cut:
                    continue
                z_end = 0 if tri.edges[e][0] == z else 1
                ds.append(dart(e, z_end, copy))
            for i, d in enumerate(ds):
                rotation[d] = ds[(i + 1) % len(ds)]

    tm = TransverseMap(tri, pairing, rotation, edge_sign,
                       vertex_label, dart_label, {}, [])
    tm.regions = _disk_regions(tm)
    require_valid(tm, "fold_degree_zero")
    if chi_domain(tm) != 2 or mod2_degree(tm) != 0:
        raise InternalInconsistency("fold model is not a degree-zero sphere map")
    return tm


def builtin_example(name: str) -> TransverseMap:
    if name == "rp2_pinch":
        tm = identity_map(builtin_triangulation("sphere_tetra"))
        return add_pinch(tm, 0, SurfaceKind(False, crosscaps=1))
    if name == "fold_degree_zero":
        return _fold_degree_zero()
    raise UnknownName(f"unknown example {name!r}; "
                      "choose from ['fold_degree_zero', 'rp2_pinch']")
