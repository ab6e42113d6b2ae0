"""Combinatorial model of a surface map transversal to the target skeleton.

The preimage graph sits in the domain as a signed ribbon graph: darts with
an edge pairing, a rotation (cyclic dart order per vertex), and a sign per
edge saying whether the edge's band preserves the local sheet orientation.
Every dart is labeled by a half-edge of the target; the complement of the
graph is a list of regions, each an abstract compact surface attached
along boundary circuits of the ribbon structure (or along sides of
isolated circles, which carry no vertices).  Regions are frozen, a map
holds them in a tuple, and its copies share it.  Isolated circles are
kept in a read-only mapping under ids that never change, so removing
one renumbers nothing; documents, normalize traces and messages give a
circle's position in that mapping instead, and to_json/from_json
convert.  Regions and circles change only through TransverseMap.replace,
which puts new ones in place and records what went and what came.

Boundary circuits are traced on side-end tokens (dart, side).  A region
stores each of its circuits as a token sequence whose direction is the
one induced by the region's reference orientation (of its planar part,
for nonorientable kinds); this direction data is what makes orientability
of the domain, surgery compatibility and factorization directions
computable.

Everything that depends only on the target and the five dart tables
(pairing, rotation, edge_sign, vertex_label, dart_label) lives in one
RibbonFacts object per map: vertex ids, traced circuits (keyed by their
first token), local signs, edge keys, V - E, preimage counts, graph
components and band-forced chart flips, and the verdict of
validate_map's dart-level sections per vertex and per edge.  The
tables are read-only mappings that the facts, the map and its copies
share, so a copy inherits the facts of its original and uses them as
they are while it holds their tables.  A map that writes a table first
takes its own copy of it (TransverseMap.own), and then derives its
facts from the inherited ones (RibbonFacts.derive).  After the two edits
the moves make, whole vertices deleted and bands rewired, the darts where
the tables differ are read off the tables, the vertices gone are dropped,
the circuits and edges through the others are traced and checked again,
and the rest is carried over; after any other edit every fact is computed
from the tables.  Per-circuit answers (walk keys, corner problems, corner
constraints, classes) live in one memo, the RegionChecks of each region
object, kept in the facts with what else a region's checks find on
their own (isolated sides, its problems, domain-solve ties), and built
by one constructor.  A check computes them only for regions it has not
seen, taking the answers it is given by circuit (those of the circuits
a new region shares with the regions it replaces, or a lift disk's from
the one-sheeted lift) and walking the rest, and derived facts carry them
over for the regions of the map's inherited tiling (when it was made
with the parent facts) whose circuits are all unchanged: a region's
ties name darts of its own circuits, never a graph component, so they
hold after a move that splits a component or twists one.

What spans regions is the Tiling of a passed check: the owner of each
traced circuit and circle side (one map each; the regions that bound a
circle are the owners of circle sides), the regions' Euler sum, their
count of nonorientable kinds and the linked regions, those whose ties
the domain solve unites (domain_solve), the connectivity and orientation
of the domain in one parity union-find.  A copy inherits the tiling of its
original as it inherits the facts, and its check derives its own from it
(Tiling.derived): the regions and circles that changed are read off the
record of the map's edits since the tiling's state, which the check
holds against the tiling, and only they are checked again and their
owners and sums updated.  The solve is made once per tiling, over the
linked regions only; the ties of each such region, resolved by
the vertex chart flips, are memoized in the facts beside its
RegionChecks, so a move that keeps the dart tables resolves only the
ties of the regions it adds.  Such a move (a join, an insert, a
relocation) also derives its result's solve from its input's where the
input's spanning forest, the regions whose ties merged two classes,
certifies it: a copy of the input's union-find takes the ties of the
regions it adds only (_derive_solve).  A derivation only ever answers that
nothing is wrong: where it would find a problem, and for a map without a
tiling, a record or carried facts, validate_map checks from scratch,
with the same problem texts in the same order.  Every passed check
leaves a tiling; a move reads the regions it touches off its input's,
and a domain answer the solve of its map's (checked_tiling, which
checks a map that has none first, and refuses one that fails).

A cover's lift (map_from_cover) is checked by its base: its ribbon facts,
and the answers of its disks' circuits, are pulled back from the
one-sheeted lift, which is checked from scratch once per triangulation,
once its tables are seen to project onto that lift's (OneSheetedLift).
"""

from __future__ import annotations

import bisect
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .errors import (BadKind, Disconnected, DisconnectedCover,
                     InconsistentParity, InputError, InternalInconsistency,
                     InvalidSurface, NotOrientable)
from .surfaces import (SurfaceKind, Triangulation, connected_sum_kind, doc_field,
                       doc_id, doc_int, doc_pair, per_triangulation)
from . import covers as covers_mod
from .unionfind import ParityUF


# --------------------------------------------------------------------------
# Data model


@dataclass(frozen=True, eq=False)
class IsolatedCircle:
    """Compared and hashed by identity, as regions are."""
    edge: int   # target edge whose interior the circle maps into


@dataclass(frozen=True)
class RibbonCircuit:
    """Alternating token sequence (band step, corner step, ...); tokens are
    (dart, side) pairs, side 0/1 being the two ends of a dart's band side."""
    seq: tuple

    def reversed(self):
        return RibbonCircuit(tuple(reversed(self.seq)))


def corners(seq: tuple):
    """The corner steps (a, b) of an alternating boundary walk: a at each
    odd position, b the token after it."""
    return zip(seq[1::2], seq[2::2] + seq[:1])


def rotation_orbit(rotation: dict, d: int) -> list:
    """The darts of d's rotation orbit (its vertex) in rotation order,
    starting at d."""
    orbit = [d]
    cur = rotation[d]
    while cur != d:
        orbit.append(cur)
        cur = rotation[cur]
    return orbit


@dataclass(frozen=True)
class IsoSide:
    circle: int       # isolated circle id (a key of TransverseMap.isolated)
    side: int         # 0 or 1
    direction: int    # +1: the region-induced direction equals the circle's own


@dataclass(frozen=True, eq=False)
class Region:
    """Frozen, so maps and the per-region check memo share a region
    object until a move replaces it; compared and hashed by identity, so
    a check tells a replaced region from a kept one in sets and dicts."""
    label: int                 # target triangle
    kind: SurfaceKind          # boundary == len(circuits)
    circuits: tuple = ()


class _Edits(NamedTuple):
    """What TransverseMap.replace changed since a state (`base`,
    `base_isolated`): the regions that went and those that came (dicts
    keyed by region, in order), the ids of the circles set or deleted, and
    the state it ends at (`regions`, `isolated`)."""
    base: tuple
    base_isolated: object
    gone: dict = ()
    came: dict = ()
    circles: frozenset = frozenset()
    regions: tuple = None
    isolated: object = None


@dataclass
class TransverseMap:
    """The five dart tables are read-only mappings (MappingProxyType) that
    a map shares with its copies and its ribbon facts, except a table the
    map took its own copy of to write (own).  The regions are a tuple and
    the circles a read-only mapping, and both change only through
    replace, which records what went and what came."""
    target: Triangulation
    pairing: dict              # dart -> dart (fixed-point-free involution)
    rotation: dict             # dart -> next dart at the same vertex
    edge_sign: dict            # edge key (min dart of the pair) -> +1/-1
    vertex_label: dict         # dart -> target vertex (constant on rotation orbits)
    dart_label: dict           # dart -> (target edge, end)
    # circle id -> IsolatedCircle; a circle's position in this order is
    # its index in documents, traces and messages, and ids never change
    isolated: dict = field(default_factory=dict)
    regions: tuple = ()        # of Region
    # RibbonFacts of the map's tables, or of those of a map it was copied
    # from (then derived from on first use), and whether the map holds
    # their tables
    _facts: object = field(default=None, init=False, repr=False, compare=False)
    _facts_held: bool = field(default=False, init=False, repr=False, compare=False)
    # Tiling of the last passed validate_map (inherited through copy())
    _tiling: object = field(default=None, init=False, repr=False, compare=False)
    # what replace changed since the state of that tiling (_Edits), or None
    _edits: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.regions = tuple(self.regions)
        if self.isolated.__class__ is not MappingProxyType:
            self.isolated = MappingProxyType(dict(self.isolated))

    # -- elementary structure -------------------------------------------------

    def ribbon_facts(self) -> "RibbonFacts":
        """The facts of this map's dart tables: the inherited ones while
        the map holds their read-only tables, otherwise derived from them
        (RibbonFacts.derive), or fresh when there are none.  The map then
        holds the facts' tables, until it takes its own copy of one to
        write it (own)."""
        if not self._facts_held:
            facts = self._facts
            self.hold(RibbonFacts(self) if facts is None
                      else RibbonFacts.derive(facts, self))
        return self._facts

    def hold(self, facts: "RibbonFacts"):
        """Use `facts`, made for tables equal to this map's, as the map's
        ribbon facts, holding their tables instead of its own."""
        self._facts = facts
        (self.pairing, self.rotation, self.edge_sign, self.vertex_label,
         self.dart_label) = facts.tables
        self._facts_held = True

    def own(self, *names) -> list:
        """The named dart tables as this map's own writable dicts, copying
        each one that is shared first: the one way a move writes a table.
        The next use of the ribbon facts derives them from the old ones
        (RibbonFacts.derive), and the tables are shared again."""
        out = []
        for name in names:
            table = getattr(self, name)
            if table.__class__ is MappingProxyType:
                table = table.copy()
                setattr(self, name, table)
                self._facts_held = False
            out.append(table)
        return out

    def edge_key(self, d: int) -> int:
        return min(d, self.pairing[d])

    def edge_keys(self):
        """Sorted edge keys (a shared list; do not modify)."""
        return self.ribbon_facts().edge_keys

    # -- token walking ----------------------------------------------------------

    def band_step(self, token):
        """Across a dart's band to the paired dart: a token (dart, side)
        keeps its side on a twisted band and swaps it on a plain one.
        (RibbonFacts traces circuits by this rule and the corner rule:
        from side 1 to the next dart's side 0, from side 0 to the previous
        dart's side 1.)"""
        d, x = token
        p = self.pairing[d]
        return (p, 1 - x) if self.edge_sign[min(d, p)] > 0 else (p, x)

    def trace_circuits(self):
        """All boundary circuits of the ribbon graph, each an alternating
        token tuple starting with a band step from its minimal token
        (a shared list; do not modify)."""
        return self.ribbon_facts().trace_circuits

    # -- derived labels -----------------------------------------------------------

    def label_edge(self, d: int) -> int:
        return self.dart_label[d][0]

    # -- region-side structure ------------------------------------------------------

    def replace(self, regions=None, append=(), circles=None):
        """Replace regions by index (`regions`: index -> the new region, or
        None to delete it), append the regions `append`, and set circles by
        id (`circles`: id -> circle, or None to delete it): the one way a
        map's regions and circles change.  Both are replaced by new
        objects, and what went and what came since the state of the map's
        tiling is recorded (_Edits): the check reads the record instead of
        comparing the two states (Tiling.derived)."""
        edits = self._edits or _Edits(self.regions, self.isolated)
        gone, came, changed = dict(edits.gone), dict(edits.came), edits.circles
        if regions or append:
            new = list(self.regions)
            removed, added = [], list(append)
            # from the last index down, so a deletion moves no index to come
            for ri, region in sorted((regions or {}).items(), reverse=True):
                removed.append(new[ri])
                if region is None:
                    del new[ri]
                else:
                    new[ri] = region
                    added.append(region)
            # a region that goes after it came, or comes after it went, cancels
            for region in removed:
                if region in came:
                    del came[region]
                else:
                    gone[region] = None
            for region in added:
                if region in gone:
                    del gone[region]
                else:
                    came[region] = None
            self.regions = tuple(new + list(append))
        if circles:
            isolated = self.isolated.copy()
            for cid, circle in circles.items():
                if circle is None:
                    del isolated[cid]
                else:
                    isolated[cid] = circle
            self.isolated = MappingProxyType(isolated)
            changed = changed.union(circles)
        self._edits = _Edits(edits.base, edits.base_isolated, gone, came, changed,
                             self.regions, self.isolated)

    def next_circle_id(self) -> int:
        """The id a new circle takes: one above every id in use (a move
        sets it by replace, last in order)."""
        return max(self.isolated, default=-1) + 1

    def circle_positions(self) -> dict:
        """circle id -> position in `isolated`."""
        return {cid: i for i, cid in enumerate(self.isolated)}

    def tiling(self):
        """The Tiling of the last passed check of this map, or of the map
        it was copied from, while the map's facts, regions and circles are
        the ones checked (by identity); otherwise None."""
        tiling = self._tiling
        if (tiling is not None and tiling.regions is self.regions
                and tiling.isolated is self.isolated
                and tiling.facts is self.ribbon_facts()):
            return tiling
        return None

    def copy(self) -> "TransverseMap":
        """A map that shares everything with this one: the read-only dart
        tables, the region tuple and the circles (a table this map owns is
        made read-only first, as a copy, so neither map writes the other's),
        the ribbon facts, the tiling of the last passed check, for the
        copy's check to derive its own from (Tiling.derived), and the
        record of the edits since that check."""
        for name in _TABLES:
            table = getattr(self, name)
            if table.__class__ is not MappingProxyType:
                setattr(self, name, MappingProxyType(table.copy()))
        out = TransverseMap(self.target, self.pairing, self.rotation, self.edge_sign,
                            self.vertex_label, self.dart_label, self.isolated,
                            self.regions)
        out._facts, out._facts_held = self._facts, self._facts_held
        out._tiling, out._edits = self._tiling, self._edits
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
        validate_map's.  Every table and region is read element by
        element, which takes integers written as decimal strings and names
        the first bad element."""
        if not isinstance(obj, dict) or obj.get("type") != "transverse_map":
            raise InputError("not a transverse_map document")
        what = "transverse_map"
        target = Triangulation.from_json(doc_field(obj, "target", dict, what))
        problems = target.validate()
        if problems:
            raise InputError(f"{what}: invalid target: {problems[:4]}")
        vmap = {str(v): v for v in target.vertices}
        # the context strings of the error texts, made once per document
        circuit_what, token_what = f"{what} circuit", f"{what} circuit token"
        region_what, circle_what = f"{what} region", f"{what} isolated circle"

        def table(key, value):
            dart_what, value_what = f"{what} {key} dart", f"{what} {key}"
            return {doc_int(d, dart_what): value(v, value_what)
                    for d, v in doc_field(obj, key, dict, what).items()}

        def circ(c):
            # a document's circle index is the circle's id
            kind = doc_field(c, "kind", str, circuit_what)
            if kind == "ribbon":
                seq = doc_field(c, "seq", list, circuit_what)
                return RibbonCircuit(tuple(doc_pair(t, token_what) for t in seq))
            if kind == "iso":
                return IsoSide(*(doc_field(c, k, int, circuit_what)
                                 for k in ("index", "side", "direction")))
            raise InputError(f"{what}: unknown circuit kind {kind!r}")

        def region(r):
            return Region(doc_field(r, "label", int, region_what),
                          SurfaceKind.from_json(doc_field(r, "kind", dict, region_what)),
                          tuple(circ(c) for c in doc_field(r, "circuits", list,
                                                           region_what)))

        return TransverseMap(
            target=target,
            pairing=table("pairing", doc_int),
            rotation=table("rotation", doc_int),
            edge_sign=table("edge_sign", doc_int),
            vertex_label=table("vertex_label",
                               lambda v, w: vmap.get(str(doc_id(v, w)), v)),
            dart_label=table("dart_label", doc_pair),
            isolated={i: IsolatedCircle(doc_field(c, "edge", int, circle_what))
                      for i, c in enumerate(doc_field(obj, "isolated", list, what))},
            regions=[region(r) for r in doc_field(obj, "regions", list, what)],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __reduce__(self):
        """Pickled and deep-copied by its fields, the tables and circles as
        dicts (a read-only mapping has no pickle), as a map with no facts,
        tiling or record yet."""
        return (TransverseMap, (self.target, *(dict(getattr(self, name))
                                               for name in _TABLES),
                                dict(self.isolated), self.regions))


# --------------------------------------------------------------------------
# Circuit classification


@dataclass(frozen=True)
class CircuitClass:
    variant: str               # "essential" | "isolated_side" | "irregular"
    index: int = 0
    direction: int = 0


_ISOLATED_SIDE = CircuitClass("isolated_side")


def classify_circuit(tm: TransverseMap, region: Region, circuit) -> CircuitClass:
    """The class of one of the region's circuits, read from the classes
    its RegionChecks memoize (RegionChecks.classes)."""
    facts = tm.ribbon_facts()
    return facts.checks_of(region).classes(facts)[region.circuits.index(circuit)]


# --------------------------------------------------------------------------
# Ribbon facts


_TABLES = ("pairing", "rotation", "edge_sign", "vertex_label", "dart_label")
_UNKNOWN = MappingProxyType({})    # no circuit's answer known (RegionChecks)
_SERIALS = itertools.count()


class RibbonFacts:
    """The facts that depend only on the target and the five dart tables
    (pairing, rotation, edge_sign, vertex_label, dart_label).

    The object holds its own dicts of the tables it describes, which
    nothing writes, and read-only views of them (`tables`), which a map
    using these facts holds as its tables: a map uses the facts only while
    it holds those very views (TransverseMap.ribbon_facts), so a move that
    keeps the tables (a join, an insert, a relocation) keeps the facts at
    no cost.  A map that took its own copy of a table to write it
    (TransverseMap.own), or that holds other tables, gets facts derived
    from those it inherited (derive), which share the tables it did not
    take and, after the edits the moves make (whole vertices deleted,
    bands rewired), carry over every fact away from the changed darts.
    Each fact is computed on first use, or carried over:

    * vertex_of, rot_inv, edge_keys, vertex_reps, local_signs, V - E and
      the preimage count per target vertex;
    * the traced circuits, each keyed by its first token, which is its
      least token (circuit_by_key, circuit_of_token; trace_circuits lists
      them in key order);
    * the verdict of validate_map's dart-level sections, kept per vertex
      and per edge;
    * the vertex components of the graph and the vertex chart flips that
      its band signs force;
    * per region object, its RegionChecks (checks_of), the one memo of
      per-circuit answers: walk_key, corner_problem, corner_constraints
      and circuit_class compute theirs afresh; derived facts carry those
      of the inherited tiling's regions (_carry);
    * per linked region object (one whose ties the domain solve
      unites), its ties, the anchor ties resolved by the vertex chart
      flips (_ties); derived facts start without them, as their charts
      may differ.

    The facts of a cover's lift are pulled back from the one-sheeted lift
    instead where the lift's tables project onto it (lift_facts,
    OneSheetedLift.pull_back): the local signs and the vertex and edge
    problems are set from the images, and checks_of pulls the answer of a
    disk's circuit back (OneSheetedLift.disk_known).  The rest is computed
    on the lift's own tables, table_problem first.
    """

    def __init__(self, tm: TransverseMap, parent: "RibbonFacts" = None):
        self.target = tm.target
        # per table: a dict of its own, or the parent's where tm holds the
        # parent's table; `tables` holds a read-only view of each, the
        # tables that a map holding these facts holds (ribbon_facts)
        held = (None,) * len(_TABLES) if parent is None else parent.tables
        tables = []
        for name, shared in zip(_TABLES, held):
            table = getattr(tm, name)
            if table is shared:
                setattr(self, name, getattr(parent, name))
            else:
                plain = table.copy()
                setattr(self, name, plain)
                table = MappingProxyType(plain)
            tables.append(table)
        self.tables = tuple(tables)
        self._regions = {}     # region -> RegionChecks
        self._ties = {}        # region -> its resolved ties (_ties)
        # the one-sheeted lift these facts were pulled back from
        # (OneSheetedLift.pull_back), or None
        self._lift = None
        # a number no other facts object has, and for facts derived from
        # a parent (derive): (the parent's serial, the keys of its traced
        # circuits that were traced again)
        self.serial = next(_SERIALS)
        self.origin = None

    # -- derivation ---------------------------------------------------------------

    @classmethod
    def derive(cls, parent: "RibbonFacts", tm: TransverseMap) -> "RibbonFacts":
        """The facts of tm's tables, from the facts of a parent map: the
        parent itself when each table is the parent's (by identity) or
        equals it, otherwise new facts that share the parent's tables that
        tm holds.  They carry over what lies away from the darts where the
        others differ only after the two edits the moves make: whole
        vertices deleted (a collapse) and bands rewired (a collapse, a
        surgery), that is, when every dart whose rotation entry or labels
        changed is gone from the pairing.  After any other edit they
        compute every fact from the tables on first use, `origin` stays
        None, and the map's check starts from scratch (Tiling.derived).

        Those darts are read off the tables, as the symmetric difference
        of each such table's items with the parent's, with the darts whose
        steps read a changed entry: the old and new partners and rotation
        targets and both darts of an edge whose sign changed.  Locality:
        band and corner steps change only at those darts, and a traced
        circuit is an orbit of the steps, so a circuit through none of
        them is the same circuit; a vertex that keeps its darts keeps its
        rep, local sign and problems, and an edge between two such
        vertices keeps its problems.  A region's per-circuit answers
        depend on its circuits' own tokens only, so a region of the
        tiling tm inherited (when it was made with parent's facts) whose
        circuits all walk unchanged circuits keeps its RegionChecks.
        Nothing carried over names a graph component (a corner constraint
        names a dart of its own walk), so a move that splits a component or
        twists one carries as much as any other.  A new target, or tables
        that break an axiom of table_problem (now or in the parent), give
        facts without a carry; the axioms are read at the changed darts
        only (_tables_hold)."""
        if tm.target is not parent.target:
            return cls(tm)
        old_pairing, new_pairing = parent.pairing, tm.pairing
        touched = set()        # darts whose band or corner steps may differ
        moved = set()          # darts whose rotation entry or labels differ
        for name, shared in zip(_TABLES, parent.tables):
            new, old = getattr(tm, name), getattr(parent, name)
            if new is shared or new == old:
                continue
            try:
                changed = new.items() ^ old.items()
            except TypeError:      # an unhashable table value
                return cls(tm)
            if name == "edge_sign":
                for k, _sign in changed:
                    touched.update((k, old_pairing.get(k), new_pairing.get(k)))
            elif name == "pairing":
                touched.update(itertools.chain.from_iterable(changed))
            elif name == "rotation":
                moved.update(itertools.chain.from_iterable(changed))
            else:
                moved.update(d for d, _label in changed)
        touched |= moved
        if not touched:
            return parent
        touched.discard(None)
        out = cls(tm, parent)
        if (parent.table_problem is None
                and not any(map(new_pairing.__contains__, moved))
                and out._tables_hold(touched)):
            out._carry(parent, touched, tm._tiling)
        return out

    def _tables_hold(self, touched: set) -> bool:
        """Whether the tables pass table_problem's axioms, given that they
        differ from the parent's, which pass them, only at the darts in
        `touched` (keys and values alike), and that a dart whose rotation
        entry or labels differ is gone (derive); if so that is the verdict.

        So only those darts are read: the four dart sets agree at each,
        and the pairing and signs hold at each live one.  A dart gone has
        no rotation entry, so its parent entry changed and its parent
        rotation target is gone too: the darts gone are whole vertices,
        and a live dart keeps its parent's rotation entry, a live dart."""
        pairing, rotation, sign = self.pairing, self.rotation, self.edge_sign
        labels, vertices = self.dart_label, self.vertex_label
        for d in touched:
            if d not in pairing:
                if d in rotation or d in labels or d in vertices:
                    return False
                continue
            if d not in rotation or d not in labels or d not in vertices:
                return False
            p = pairing[d]
            if p == d or pairing.get(p) != d or sign.get(min(d, p)) not in (1, -1):
                return False
        self.table_problem = None
        return True

    def _carry(self, parent: "RibbonFacts", touched: set, tiling):
        """Fill in what parent's facts give away from the touched darts.
        The darts gone are whole vertices (derive, _tables_hold), so
        vertices are only removed and only the edges made are checked
        again.  The RegionChecks carried are those of the regions of
        `tiling`, the tiling the map inherited, when it was made with
        parent's facts, less the owners of the circuits traced again.  No
        step walks the whole map: the parent's dicts are copied and edited
        at the touched darts, and its sorted lists edited by bisection."""
        pairing = self.pairing
        old_pairing = parent.pairing
        live = [d for d in touched if d in pairing]
        deleted = [d for d in touched if d not in pairing and d in old_pairing]
        self.target_edges = parent.target_edges

        gone = {d if d < p else p for d in touched if d in old_pairing
                for p in (old_pairing[d],)}
        made = {d if d < p else p for d in live for p in (pairing[d],)}
        keys = list(parent.edge_keys)
        for k in gone - made:
            del keys[bisect.bisect_left(keys, k)]
        for k in made - gone:
            bisect.insort(keys, k)
        self.edge_keys = keys

        # vertices: those of the darts gone, which go whole; edges: the
        # ones gone and made
        old_of = parent.vertex_of
        rot_inv = dict(parent.rot_inv)
        vertex_of = dict(old_of)
        for d in deleted:
            del rot_inv[d]
            del vertex_of[d]
        self.rot_inv = rot_inv
        local = dict(parent.local_signs)
        vertex_problems = dict(parent.vertex_problems)
        edge_problems = dict(parent.edge_problems)
        counts = dict(parent.preimage_counts)
        reps = list(parent.vertex_reps)
        for rep in {old_of[d] for d in deleted}:
            del local[rep]
            del reps[bisect.bisect_left(reps, rep)]
            vertex_problems.pop(rep, None)
            P = parent.vertex_label[rep]
            if P in counts:
                counts[P] -= 1
        self.vertex_of = vertex_of
        self.vertex_reps = reps
        self.local_signs = local
        if edge_problems:
            for k in gone:
                edge_problems.pop(k, None)
        for k in made:
            problem = self._edge_problem(k)
            if problem is not None:
                edge_problems[k] = problem
        self.vertex_problems = vertex_problems
        self.edge_problems = edge_problems
        self.preimage_counts = counts

        # circuits: the ones through touched tokens are traced again from
        # the live touched darts.  Every other token of theirs lies on a
        # circuit traced again (one through no touched token would be the
        # old circuit), or is gone with its dart, so only those tokens are
        # taken out of the copied token map.
        old_key_of = parent.circuit_of_token
        dead = {old_key_of[t] for d in touched for t in ((d, 0), (d, 1))
                if t in old_key_of}
        key_of = dict(old_key_of)
        by_key = dict(parent.circuit_by_key)
        for key in dead:
            del by_key[key]
        for d in deleted:
            del key_of[d, 0], key_of[d, 1]
        traced = set()
        for d in live:
            for tok in ((d, 0), (d, 1)):
                if tok not in traced:
                    c = self._trace_from(tok)
                    key = c.seq[0]
                    by_key[key] = c
                    key_of.update(dict.fromkeys(c.seq, key))
                    traced.update(c.seq)
        self.circuit_by_key = by_key
        self.circuit_of_token = key_of
        self.origin = (parent.serial, dead)

        # the RegionChecks of the tiling's regions, less the owners of the
        # circuits traced again
        if tiling is not None and tiling.facts is parent:
            regions = {region: parent.checks_of(region) for region in tiling.regions}
            stored = tiling.stored
            for key in dead:
                regions.pop(stored[key].region, None)
            self._regions = regions

    # -- structure --------------------------------------------------------------

    @cached_property
    def target_edges(self) -> tuple:
        """Per target edge: (the set of triangles at it, whether its band
        preserves the orientation)."""
        T = self.target
        return tuple((frozenset(t for t, _ in T.edge_sides(e)), T.edge_compatible(e))
                     for e in range(len(T.edges)))

    @cached_property
    def edge_keys(self) -> list:
        return sorted({d if d < p else p for d, p in self.pairing.items()})

    @cached_property
    def collapsible_edges(self) -> list:
        """The edge keys, in order, whose two darts carry the same target
        half-edge."""
        label, pairing = self.dart_label, self.pairing
        return [k for k in self.edge_keys if label[k] == label[pairing[k]]]

    @cached_property
    def rot_inv(self) -> dict:
        return {v: k for k, v in self.rotation.items()}

    @cached_property
    def vertex_of(self) -> dict:
        out = {}
        rotation = self.rotation
        for d0 in self.pairing:
            if d0 not in out:
                orbit = rotation_orbit(rotation, d0)
                out.update(dict.fromkeys(orbit, min(orbit)))
        return out

    @cached_property
    def vertex_reps(self) -> list:
        return sorted(set(self.vertex_of.values()))

    def vertex_darts(self, rep: int) -> list:
        """Darts at the vertex of `rep` in rotation order, starting at rep."""
        return rotation_orbit(self.rotation, rep)

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
        (number of its connected component in the graph, its chart flip
        relative to the component's least vertex); components are numbered
        in the order of their least vertices, and `consistent` says whether
        the band signs admit the flips on every component.  On a component
        where they do not, the flip is None: the domain is not orientable,
        so no answer depends on flips there, and so none depends on the
        spanning tree they were read along."""
        pairing, rotation, sign = self.pairing, self.rotation, self.edge_sign
        vertex_of = self.vertex_of
        charts = {}
        consistent = True
        n = 0
        for root in self.vertex_reps:
            if root in charts:
                continue
            charts[root] = (n, 0)
            stack = [root]
            component = []
            twisted = False
            while stack:
                v = stack.pop()
                component.append(v)
                flip = charts[v][1]
                d = v
                while True:
                    p = pairing[d]
                    u = vertex_of[p]
                    f = flip ^ (sign[d if d < p else p] < 0)
                    seen = charts.get(u)
                    if seen is None:
                        charts[u] = (n, f)
                        stack.append(u)
                    elif seen[1] != f:
                        twisted = True
                    d = rotation[d]
                    if d == v:
                        break
            if twisted:
                consistent = False
                charts.update(dict.fromkeys(component, (n, None)))
            n += 1
        return charts, n, consistent

    # -- token walking ------------------------------------------------------------

    def _walk_from(self, t0) -> list:
        """The tokens of the boundary walk that leaves token t0 by a band
        step, up to its return to t0."""
        pairing, sign = self.pairing, self.edge_sign
        rotation, rot_inv = self.rotation, self.rot_inv
        seq = []
        append = seq.append
        d0, x0 = d, x = t0
        while True:
            p = pairing[d]
            y = 1 - x if sign[d if d < p else p] > 0 else x
            append((d, x))
            append((p, y))
            if y == 1:
                d, x = rotation[p], 0
            else:
                d, x = rot_inv[p], 1
            if d == d0 and x == x0:
                return seq

    def _trace_from(self, t0) -> RibbonCircuit:
        """The traced circuit through token t0: it starts at its least
        token, with a band step."""
        seq = self._walk_from(t0)
        start = seq.index(min(seq))
        if start % 2:
            # the least token is entered by a band step: the walk that
            # leaves it by one runs the other way
            seq.reverse()
            start = len(seq) - 1 - start
        return RibbonCircuit(tuple(seq[start:] + seq[:start]))

    @cached_property
    def circuit_by_key(self) -> dict:
        """Key (first token) -> traced circuit, for all boundary circuits
        of the ribbon graph (a shared dict; do not modify); fills
        circuit_of_token too."""
        by_key = {}
        key_of = {}
        for d in sorted(self.pairing):
            for tok in ((d, 0), (d, 1)):
                if tok not in key_of:
                    # tokens come in order, so tok is the least of its
                    # walk, and the walk is its traced circuit (_trace_from)
                    c = RibbonCircuit(tuple(self._walk_from(tok)))
                    by_key[tok] = c
                    key_of.update(dict.fromkeys(c.seq, tok))
        self.circuit_of_token = key_of
        return by_key

    @cached_property
    def circuit_of_token(self) -> dict:
        """token -> key of the traced circuit through it."""
        self.circuit_by_key
        return self.__dict__["circuit_of_token"]

    @cached_property
    def trace_circuits(self) -> list:
        by_key = self.circuit_by_key
        return [by_key[key] for key in sorted(by_key)]

    def _flank(self, k: int) -> tuple:
        """For edge key k: (key of the traced circuit through (k, 0), key
        of the one through (k, 1), the triangles at k's target edge)."""
        key_of = self.circuit_of_token
        return (key_of[(k, 0)], key_of[(k, 1)],
                self.target_edges[self.dart_label[k][0]][0])

    def _local_sign(self, rep):
        labels = [self.dart_label[d][0] for d in self.vertex_darts(rep)]
        rot = self.target.rotations.get(self.vertex_label[rep])
        if rot is None or len(rot) != len(labels):
            return None
        m = len(rot)
        for base in (rot, rot[::-1]):
            for shift in range(m):
                if all(labels[(shift + i) % m] == base[i] for i in range(m)):
                    return 1 if base is rot else -1
        return None

    @cached_property
    def local_signs(self) -> dict:
        """Per vertex id: +1 if the dart labels in rotation order read the
        target rotation forward, -1 if backward, None if neither."""
        return {rep: self._local_sign(rep) for rep in self.vertex_reps}

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

    def _vertex_problem(self, rep):
        """The vertex-label, half-edge or fan-order problem of a vertex."""
        T = self.target
        vd = self.vertex_darts(rep)
        P = self.vertex_label[rep]
        if any(self.vertex_label[d] != P for d in vd):
            return f"vertex labels differ around vertex {rep}"
        if P not in T.rotations:
            return f"vertex {rep} labeled by unknown target vertex {P}"
        if sorted(self.dart_label[d] for d in vd) != T.half_edges_at(P):
            return f"darts at vertex {rep} do not biject onto the half-edges at {P}"
        if self.local_signs[rep] is None:
            return f"dart labels around vertex {rep} do not read the target rotation"
        return None

    def _edge_problem(self, k):
        """The edge-coherence or band-sign problem of an edge."""
        d1, d2 = k, self.pairing[k]
        e1, end1 = self.dart_label[d1]
        e2, end2 = self.dart_label[d2]
        if e1 != e2:
            return f"edge {k} carries two different target edges"
        local, vertex_of = self.local_signs, self.vertex_of
        l1 = local.get(vertex_of[d1])
        l2 = local.get(vertex_of[d2])
        if l1 is None or l2 is None:
            # a loop is among these: its two darts put one target edge
            # twice among its vertex's labels, which no rotation of the
            # loop-free target reads
            return None
        if (e1, end1) == (e2, end2):
            want = -l1 * l2
        else:
            want = l1 * l2 * (1 if self.target_edges[e1][1] else -1)
        s = self.edge_sign[k]
        if s != want:
            return f"edge {k} has sign {s}, band geometry forces {want}"
        return None

    @cached_property
    def vertex_problems(self) -> dict:
        """Vertex id -> its problem, for the vertices that have one."""
        out = {}
        for rep in self.vertex_reps:
            problem = self._vertex_problem(rep)
            if problem is not None:
                out[rep] = problem
        return out

    @cached_property
    def edge_problems(self) -> dict:
        """Edge key -> its problem, for the edges that have one."""
        out = {}
        for k in self.edge_keys:
            problem = self._edge_problem(k)
            if problem is not None:
                out[k] = problem
        return out

    @cached_property
    def vertex_edge_problems(self) -> list:
        """Vertex-label, half-edge, fan-order, edge and band-sign problems
        (meaningful once table_problem is None): the vertices' in vertex
        order, then the edges' in edge key order."""
        vertex, edge = self.vertex_problems, self.edge_problems
        return ([vertex[rep] for rep in sorted(vertex)]
                + [edge[k] for k in sorted(edge)])

    # -- per-circuit results ----------------------------------------------------------

    def walk_key(self, seq: tuple):
        """None when the token tuple is not an alternating boundary walk;
        otherwise the key of the traced circuit it walks.  A walk steps
        from each token to its successor (a band step, then a corner step),
        which is a bijection of the tokens once the table axioms hold, as
        they do wherever regions are checked; so a walk goes round the
        traced circuit through its first token, once or more.  Like the
        other per-circuit answers below, it is kept only in the RegionChecks
        of the region that stores the walk (RegionChecks.walk_keys)."""
        first = self.circuit_of_token.get(seq[0]) if seq else None
        if first is not None and self.circuit_by_key[first].seq == seq:
            # the traced circuit itself, which walks by construction
            return first
        return first if self._walk_ok(seq) else None

    def _walk_ok(self, seq: tuple) -> bool:
        """Whether seq alternates band steps (from even positions) and
        corner steps around a cycle."""
        n = len(seq)
        if n == 0 or n % 2 != 0:
            return False
        pairing, sign = self.pairing, self.edge_sign
        rotation, rot_inv = self.rotation, self.rot_inv
        for i in range(0, n, 2):
            d, x = seq[i]
            p, y = seq[i + 1]
            if d not in pairing or p not in pairing or pairing[d] != p:
                return False
            if y != (1 - x if sign[d if d < p else p] > 0 else x):
                return False
            if ((rotation[p], 0) if y == 1 else (rot_inv[p], 1)) != seq[(i + 2) % n]:
                return False
        return True

    def corner_problem(self, label: int, seq: tuple):
        """None, or how a boundary walk of a region labeled `label` breaks
        the corner condition.  It is read only once every vertex's darts
        biject onto the half-edges at its label (validate_map's vertex
        problems), which puts both labels of a corner at its vertex."""
        tri_edges = set(self.target.triangle_edges(label))
        for a, b in corners(seq):
            # corner step between a and b at a's vertex
            ea = self.dart_label[a[0]][0]
            eb = self.dart_label[b[0]][0]
            if ea not in tri_edges or eb not in tri_edges:
                return "corner labels not on its triangle"
        return None

    def corner_constraints(self, seq: tuple) -> tuple:
        """The orientation constraints of a boundary walk's corners, as
        (anchor, bits): the anchor is the dart seq[1][0], and for each bit
        the region's reference flip is the anchor vertex's chart flip xor
        bit.  A corner's bit reads its vertex's flip relative to the
        anchor's along the walk's own band steps (a band of sign -1 toggles
        it, as in vertex_charts), so the answer depends on the tuple and
        the signs of its edges only, and a region's RegionChecks carries
        it over with the walk."""
        sign = self.edge_sign
        bits = set()
        rel = 0
        for i in range(1, len(seq), 2):
            # corner step from seq[i]: type bit 0 when leaving side 1 (ccw)
            bits.add(rel ^ seq[i][1])
            if i + 2 < len(seq):
                d, p = seq[i + 1][0], seq[i + 2][0]
                rel ^= sign[d if d < p else p] < 0
        return seq[1][0], frozenset(bits)

    def circuit_class(self, label: int, seq: tuple) -> CircuitClass:
        word = [self.dart_label[seq[i][0]][0] for i in range(0, len(seq), 2)]
        tri_word = self.target.triangle_edges(label)
        n = len(word)
        if n % 3 == 0 and n > 0:
            k = n // 3
            for direction, base in ((1, tri_word), (-1, list(reversed(tri_word)))):
                pattern = base * k
                if any(all(word[i] == pattern[(i + shift) % n] for i in range(n))
                       for shift in range(3)):
                    return CircuitClass("essential", k, direction)
        return CircuitClass("irregular")

    # -- per-region results --------------------------------------------------------

    def checks_of(self, region: Region, known=_UNKNOWN) -> "RegionChecks":
        """The region's RegionChecks, computed on first use for each region
        object, taking the answers `known` by circuit (RegionChecks):
        for a disk of facts pulled back from the one-sheeted lift, its
        circuit's answer from the lift (OneSheetedLift.disk_known),
        otherwise the caller's, those of the regions it replaces under
        these facts (Tiling.derived)."""
        checks = self._regions.get(region)
        if checks is None:
            lift = self._lift
            if lift is not None:
                known = lift.disk_known(self, region) or known
            checks = self._regions[region] = RegionChecks(self, region, known)
        return checks

    def region_checks(self, regions) -> list:
        """The RegionChecks of each region (checks_of)."""
        memo = self._regions
        return [memo.get(region) or self.checks_of(region) for region in regions]

    def flank_problems(self, labels: dict) -> list:
        """The side-coherence problems of the edges, in edge key order,
        when each traced circuit is stored in a region labeled labels[its
        key]: the regions flanking an edge are labeled by its two
        triangles.  (A check that derives its tiling looks only at the
        edges of the regions it replaced, Tiling.derived.)"""
        flank = self._flank
        problems = []
        for k in self.edge_keys:
            c0, c1, want = flank(k)
            sides = {labels[c0], labels[c1]}
            if sides != want:
                problems.append(f"edge {k} flanked by regions labeled "
                                f"{sorted(sides)}, expected {sorted(want)}")
        return problems


class RegionChecks:
    """What one region's checks find on their own, for one RibbonFacts
    (which memoizes it by the region object, checks_of).  It is the one
    memo of per-circuit answers: the facts compute them afresh, and
    derived facts carry the RegionChecks of a region of the inherited
    tiling whose circuits are all unchanged (RibbonFacts.derive).

    * walk_keys: the key of the traced circuit each stored ribbon circuit
      matches;
    * iso_sides: the (circle id, side) of each isolated side;
    * problems: what the region breaks by itself (kind against circuit
      count, label, side bit, boundary walks), and corner_problems: how
      its boundary walks break the corner condition, both as format
      strings taking the region's index;
    * ties: (anchor ties, circle ties) of the region in domain_solve,
      the distinct (anchor dart, bit) constraints of its boundary walks'
      corners (corner_constraints) and (circle id, bit) of its isolated
      sides, and needs_node: whether there are other than exactly one,
      so that the solve unites them (the region is linked);
    * euler and orientable, of the region's kind;
    * answers: per circuit, None for an isolated side, and for a ribbon
      circuit (walk key, or None when it is no boundary walk; then its
      corner problem, anchor and corner bits);
    * classes(facts): each circuit's class, on first use; the checks,
      the move finders, factorize and classify_circuit (the join's one
      circuit) read it here, once per region.

    One constructor builds them all.  A circuit whose answer is known is
    not walked: `known` maps id(circuit) to (circuit, region label,
    answer, class or None), and a circuit takes its entry when it is that
    object and the region has that label, as an answer reads only the
    facts, the label and the circuit.  The entries are those of the
    regions a region replaces under the same facts (Tiling.derived), or
    for a disk under facts pulled back from the one-sheeted lift, its
    circuit's (OneSheetedLift.disk_known).  A region labeled by an unknown
    triangle has its circuits left out.
    """

    __slots__ = ("region", "walk_keys", "iso_sides", "problems",
                 "corner_problems", "ties", "needs_node", "euler", "orientable",
                 "answers", "_classes")

    def __init__(self, facts: RibbonFacts, region: Region, known=_UNKNOWN):
        self.region = region
        self.euler = region.kind.euler
        self.orientable = region.kind.orientable
        problems = []
        corner_problems = []
        keys = []
        sides = []
        anchors = set()
        circles = set()
        if region.kind.boundary != len(region.circuits):
            problems.append("region {} kind boundary count disagrees with its circuits")
        circuits = region.circuits
        label = region.label
        if not (0 <= label < len(facts.target.triangles)):
            problems.append("region {} labeled by unknown triangle")
            circuits = ()
        answers = []
        classes = []
        for pos, c in enumerate(circuits):
            if isinstance(c, IsoSide):
                if c.side in (0, 1):
                    sides.append((c.circle, c.side))
                else:
                    problems.append("region {} references a bad isolated side")
                circles.add((c.circle, c.side ^ (c.direction < 0)))
                answers.append(None)
                classes.append(_ISOLATED_SIDE)
                continue
            hit = known.get(id(c))
            if hit is not None and hit[0] is c and hit[1] == label:
                _c, _label, answer, cls = hit
            else:
                key = facts.walk_key(c.seq)
                answer = (key,) if key is None else (
                    key, facts.corner_problem(label, c.seq),
                    *facts.corner_constraints(c.seq))
                cls = None
            answers.append(answer)
            classes.append(cls)
            key = answer[0]
            if key is None:
                problems.append(f"region {{}} circuit {pos} is not an "
                                "alternating boundary walk")
                continue
            keys.append(key)
            _key, problem, anchor, bits = answer
            if problem is not None:
                corner_problems.append(f"region {{}} circuit {pos} {problem}")
            anchors.update((anchor, bit) for bit in bits)
        self.answers = tuple(answers)
        self._classes = None if None in classes else tuple(classes)
        self.walk_keys = tuple(keys)
        self.iso_sides = tuple(sides)
        self.problems = tuple(problems)
        self.corner_problems = tuple(corner_problems)
        self.ties = (tuple(anchors), tuple(circles))
        self.needs_node = len(anchors) + len(circles) != 1

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
    # (facts, the region list) once the tiling holds
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
        facts, regions = self._classified
        return {(ri, pos): cls
                for ri, checks in enumerate(facts.region_checks(regions))
                for pos, cls in enumerate(checks.classes(facts))}


class Tiling:
    """The cross-region half of a passed validate_map, for one map state
    under `facts`: the map's region tuple (`regions`) and circles
    (`isolated`), held by identity; the owner (RegionChecks) of each
    traced circuit key (`stored`) and of each circle side (`owner`, the
    one map from circle sides to the regions they bound); whether no
    region is listed twice (`unique`: a passed check lets a map list a
    region twice that has neither a circuit nor a circle side); the sums
    the domain solve reads: the regions' Euler sum (`euler`), their count
    of nonorientable kinds (`nonorientable`) and the RegionChecks of the
    linked regions (`linked`, one per listing, listed on first use, which
    only a whole solve makes); and the domain solve, made on first use
    (domain_solve).

    A map passes the tiling it was checked with on to its copies, and a
    check of a copy derives the copy's tiling from it (derived), so the
    tiling is put together from scratch only for a map that has none."""

    __slots__ = ("facts", "regions", "isolated", "stored", "owner", "unique",
                 "euler", "nonorientable", "_linked", "_solve", "_base")

    def __init__(self, facts, regions, isolated, stored, owner, unique, euler: int,
                 nonorientable: int, base: tuple = None):
        self.facts = facts
        self.regions = regions
        self.isolated = isolated
        self.stored = stored
        self.owner = owner
        self.unique = unique
        self.euler, self.nonorientable = euler, nonorientable
        self._linked = None
        self._solve = None
        self._base = base

    def domain_solve(self) -> "DomainSolve":
        """The domain solve of the state, made once: derived from the
        solve of the tiling this one was derived from under the same facts
        (`_base`: that solve and what changed) where its spanning forest
        certifies it (_derive_solve), and otherwise from scratch
        (_solve)."""
        if self._solve is None:
            base, self._base = self._base, None
            solve = base and _derive_solve(*base, self)
            self._solve = solve or _solve(self.facts, self.isolated, self.euler,
                                          self.nonorientable, self.linked)
        return self._solve

    @property
    def linked(self) -> list:
        if self._linked is None:
            self._linked = [checks for checks in self.facts.region_checks(self.regions)
                            if checks.needs_node]
        return self._linked

    def _holds(self, checks: "RegionChecks") -> bool:
        """Whether the region of `checks` is one of this tiling's: the
        owner of its first stored circuit or circle side, or for a region
        with neither, one of the tiling's regions."""
        region = checks.region
        if checks.walk_keys:
            holder = self.stored.get(checks.walk_keys[0])
        elif checks.iso_sides:
            holder = self.owner.get(checks.iso_sides[0])
        else:
            return region in self.regions
        return holder is not None and holder.region is region

    def derived(self, tm: TransverseMap, facts: "RibbonFacts"):
        """tm's tiling, from this one; None unless tm passes every
        cross-region check (validate_map then looks again from scratch,
        for the problem texts).

        The difference is read off the record of tm's edits since this
        tiling's state (TransverseMap.replace): the regions that went and
        came and the circles set or deleted.  The record is checked
        against the tiling: it must run from this state to tm's, each
        region gone must be one of the tiling's (_holds), each region come
        must not be, and the count of regions must add up; a map without
        a record is checked from scratch.  tm's facts must be this
        tiling's, or carried from them (RibbonFacts.derive), and then each
        circuit traced again must be stored by a region the record says
        went, as a move replaces every region through the darts it
        rewires.  Under this tiling's facts, a region that comes takes the
        answers of the circuits it shares with the regions gone
        (RegionChecks).  Only the replaced regions and the circles they or
        the record name are checked: each stored circuit key and
        circle side has one owner, every traced circuit and circle side
        has one, and the side coherence of their edges and circles holds
        where it may have changed: for the circuits traced again, and for
        the circuits and circle sides that are new or whose owner's label
        changed (the coherence reads only the owners' labels).  The
        regions kept passed these checks with the same owners and
        circuits.  The Euler sum and the count of nonorientable kinds are
        updated by the regions replaced.  Under this tiling's facts, once
        this tiling has its solve, the new tiling keeps that solve with
        the regions replaced and the circles changed, to derive its own
        from (domain_solve).  The facts forget the RegionChecks and the
        resolved ties of the regions gone, so facts that a normalization's
        joins and inserts share hold those of the current regions only."""
        if facts is self.facts:
            retraced = ()
        elif facts.origin is not None and facts.origin[0] == self.facts.serial:
            retraced = facts.origin[1]
        else:
            return None
        regions, isolated, old = tm.regions, tm.isolated, self.regions
        edits = tm._edits
        if (edits is None or not self.unique
                or edits.base is not old or edits.base_isolated is not self.isolated
                or edits.regions is not regions or edits.isolated is not isolated
                or len(regions) - len(old) != len(edits.came) - len(edits.gone)):
            return None
        came, changed = edits.came, edits.circles
        old_facts = self.facts
        gone = {}
        for region in edits.gone:
            checks = old_facts.checks_of(region)
            if not self._holds(checks):
                return None
            gone[region] = checks
        for key in retraced:
            checks = self.stored.get(key)
            if checks is not None and checks.region not in gone:
                return None
        memo, ties = facts._regions, facts._ties
        for region in gone:
            memo.pop(region, None)
            ties.pop(region, None)
        # the owners of the circuits and circle sides and the sums, less
        # the regions gone (dict.copy clones the table where dict() would
        # hash every key again)
        stored, owner = self.stored.copy(), self.owner.copy()
        euler, nonorientable = self.euler, self.nonorientable
        for checks in gone.values():
            euler -= checks.euler
            nonorientable -= not checks.orientable
            for key in checks.walk_keys:
                del stored[key]
            for side in checks.iso_sides:
                del owner[side]
        # and with the regions added.  The side coherence of an edge or a
        # circle reads the labels of the owners of its two sides, so it is
        # checked where one of them is new, retraced or owned under
        # another label than before
        was_stored, was_owner = self.stored, self.owner
        relabelled = []       # the stored circuits to check
        flanked = set()       # the circles to check
        known = {}            # id of a circuit gone -> (it, label, answer, class)
        if facts is old_facts:
            for checks in gone.values():
                label = checks.region.label
                classes = checks._classes or itertools.repeat(None)
                for c, answer, cls in zip(checks.region.circuits, checks.answers,
                                          classes):
                    known[id(c)] = (c, label, answer, cls)
        fresh = []            # the linked checks of the regions added
        for region in came:
            checks = facts.checks_of(region, known)
            if checks.problems or checks.corner_problems:
                return None
            euler += checks.euler
            nonorientable += not checks.orientable
            if checks.needs_node:
                fresh.append(checks)
            label = region.label
            for key in checks.walk_keys:
                if key in stored:
                    return None
                stored[key] = checks
                prior = was_stored.get(key)
                if prior is None or prior.region.label != label or key in retraced:
                    relabelled.append(key)
            if checks.iso_sides:
                for side in checks.iso_sides:
                    if side in owner or side[0] not in isolated:
                        return None
                    owner[side] = checks
                    prior = was_owner.get(side)
                    if prior is None or prior.region.label != label:
                        flanked.add(side[0])
            elif not checks.walk_keys and self._holds(checks):
                return None
        if len(stored) != len(facts.circuit_by_key):
            return None
        edges = facts.target_edges
        for cid in changed:
            if cid not in isolated:
                if (cid, 0) in owner or (cid, 1) in owner:
                    return None
            elif 0 <= isolated[cid].edge < len(edges):
                flanked.add(cid)
            else:
                return None
        if len(owner) != 2 * len(isolated):
            return None

        flank, pairing, by_key = facts._flank, facts.pairing, facts.circuit_by_key
        for key in relabelled:
            for d, _x in by_key[key].seq[::2]:
                c0, c1, want = flank(d if d < pairing[d] else pairing[d])
                if {stored[c0].region.label, stored[c1].region.label} != want:
                    return None
        for cid in flanked:
            if ({owner[(cid, 0)].region.label, owner[(cid, 1)].region.label}
                    != edges[isolated[cid].edge][0]):
                return None

        base = None
        if facts is old_facts and self._solve is not None:
            base = (self._solve, gone.values(), fresh, changed, self.isolated)
        return Tiling(facts, regions, isolated, stored, owner, True, euler,
                      nonorientable, base)


def validate_map(tm: TransverseMap) -> ValidationReport:
    """Every violated invariant of the map.

    The dart-level sections (table axioms, vertices, edges and band signs)
    are read from the ribbon facts, and what each region finds on its own
    from its memoized RegionChecks.  What spans regions is the tiling: the
    stored circuits and isolated sides must be the traced circuits and the
    circles' sides, each exactly once; the side coherence of the edges
    and of the circles; and the preimage parity.  A map that has a tiling
    from a passed check (its own, or one a copy passed on) checks only
    what differs from it (Tiling.derived); a map without one, or where
    that finds a problem, is checked from scratch, which gives the problem
    texts.  A passed check leaves the map its tiling."""
    rep = ValidationReport()
    T = tm.target
    facts = tm.ribbon_facts()

    if facts.table_problem is not None:
        rep.add(facts.table_problem)
        return rep
    tiling = tm._tiling
    if tiling is not None and not facts.vertex_edge_problems:
        if tm.tiling() is None:
            tiling = tiling.derived(tm, facts)
        if tiling is not None:
            tm._tiling = tiling
            tm._edits = None
            rep._classified = (facts, tiling.regions)
            _check_parity(rep, facts)
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
    # exactly one region.  The tiling holds the regions and circles by
    # identity, so a map given others than a tuple and a read-only
    # mapping is given those
    regions = tm.regions = tuple(tm.regions)
    if isolated.__class__ is not MappingProxyType:
        isolated = tm.isolated = MappingProxyType(dict(isolated))
    entries = facts.region_checks(regions)
    position = tm.circle_positions()
    stored = {}            # traced circuit key -> region index
    owner = {}             # (circle id, side) -> region index
    euler = nonorientable = 0
    for ri, checks in enumerate(entries):
        euler += checks.euler
        nonorientable += not checks.orientable
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
    if len(stored) != len(facts.circuit_by_key):
        rep.problems.extend("a traced boundary circuit belongs to no region"
                            for c in facts.trace_circuits if c.seq[0] not in stored)
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
    rep._classified = (facts, regions)

    # side coherence: regions flanking an edge or a circle are labeled by
    # its two triangles
    rep.problems.extend(facts.flank_problems(
        {key: regions[ri].label for key, ri in stored.items()}))
    for i, (cid, circle) in enumerate(isolated.items()):
        got = {regions[owner[(cid, 0)]].label, regions[owner[(cid, 1)]].label}
        want = facts.target_edges[circle.edge][0]
        if got != want:
            rep.add(f"isolated circle {i} flanked by regions labeled {sorted(got)}, "
                    f"expected {sorted(want)}")
    if not rep.problems:
        tm._tiling = Tiling(facts, regions, isolated,
                            {key: entries[ri] for key, ri in stored.items()},
                            {side: entries[ri] for side, ri in owner.items()},
                            len(set(regions)) == len(regions), euler, nonorientable)
        tm._edits = None
    _check_parity(rep, facts)
    return rep


def _check_parity(rep: ValidationReport, facts: RibbonFacts):
    """Mod-2 preimage parity agreement across target vertices."""
    parities = {c % 2 for c in facts.preimage_counts.values()}
    if len(parities) > 1:
        rep.add("preimage counts of target vertices have mixed parity")


def checked_tiling(tm: TransverseMap, context: str) -> Tiling:
    """The tiling of tm's passed check (TransverseMap.tiling), checking tm
    first when it has none, and InternalInconsistency (with `context` and
    the first four problems) when it fails: the one way a move reads the
    regions it touches, and a domain answer its solve."""
    tiling = tm.tiling()
    if tiling is None:
        rep = validate_map(tm)
        if not rep.ok:
            raise InternalInconsistency(f"{context}: {rep.problems[:4]}",
                                        context=context, problems=rep.problems[:4])
        tiling = tm._tiling
    return tiling


# --------------------------------------------------------------------------
# Counts and invariants


def edge_count(tm: TransverseMap) -> int:
    """Edges of the preimage graph, isolated circles counting as one each."""
    return len(tm.edge_keys()) + len(tm.isolated)


def _ties(checks: RegionChecks, charts: dict, vertex_of: dict, n_components: int) -> tuple:
    """The distinct ties of a region as (node, rel): first its anchor
    ties, each resolved by the chart flip of its anchor's vertex to (graph
    component's number, xor of the two values), with bit 0 on a component
    whose band signs admit no flips (the tie then only joins); then its
    circle ties, the circle of id c being node n_components + c."""
    resolved = set()
    for dart, bit in checks.ties[0]:
        component, flip = charts[vertex_of[dart]]
        resolved.add((component, 0 if flip is None else flip ^ bit))
    return (*resolved, *[(n_components + cid, bit) for cid, bit in checks.ties[1]])


class DomainSolve:
    """The domain's connectivity and orientation constraints, solved
    (_solve, _derive_solve), with the regions' Euler sum that chi_domain
    adds and the spanning forest a derived solve starts from (`forest`)."""

    def __init__(self, facts, uf: ParityUF, regions_euler: int, nonorientable: int,
                 alone: int, forest: dict):
        _charts, self._n_components, bands_ok = facts.vertex_charts
        # of the domain: the classes of the union-find, and the regions
        # with no tie
        self.components = uf.sets + alone
        # the orientation constraints have a solution and every region
        # kind is orientable
        self.orientable = bands_ok and uf.ok and not nonorientable
        self.regions_euler = regions_euler
        self.forest = forest
        self._alone = alone
        self._uf = uf

    @cached_property
    def chart_flips(self) -> tuple:
        """Per graph component: its chart flip in the solution, relative
        to the least component of its class."""
        first = {}
        out = []
        for c in range(self._n_components):
            root, flip = self._uf.find(c)
            out.append(flip ^ first.setdefault(root, flip))
        return tuple(out)


def _solve(facts: RibbonFacts, isolated: dict, euler: int, nonorientable: int,
           linked: list) -> DomainSolve:
    """The domain solve of a state with the circles `isolated`, whose
    regions have the sums `euler`, `nonorientable` and `linked` (Tiling),
    from scratch: the union-find holds the graph components and a node
    for each circle id up to the largest (an id no circle has counts as
    no class), and takes the ties of every region in `linked` (_unite)."""
    _charts, n_components, _bands_ok = facts.vertex_charts
    uf = ParityUF(n_components + (max(isolated) + 1 if isolated else 0))
    uf.sets = n_components + len(isolated)
    forest = {}
    alone = _unite(uf, facts, linked, forest)
    return DomainSolve(facts, uf, euler, nonorientable, alone, forest)


def _unite(uf: ParityUF, facts: RibbonFacts, linked, forest: dict) -> int:
    """Unite the ties of each region in `linked` in uf, each with the
    region's first one, put each region whose unions merged two classes
    in the spanning forest (`forest`: region -> its ties), and return the
    count of regions with no tie (each a class of its own).  A region's
    ties are resolved once per facts (_ties, memoized by region in the
    facts).  Two ties (node, rel) and (node0, rel0) of one region say that
    its flip is node's value xor rel and node0's xor rel0, so node and
    node0 differ by rel xor rel0.  Each union hangs the class of a circle
    or a component under the root of the region's first tie, a component
    where it has one."""
    charts, n_components, _bands_ok = facts.vertex_charts
    vertex_of = facts.vertex_of
    memo = facts._ties
    union = uf.union
    alone = 0
    for checks in linked:
        region = checks.region
        ties = memo.get(region)
        if ties is None:
            ties = memo[region] = _ties(checks, charts, vertex_of, n_components)
        if not ties:
            alone += 1
            continue
        first, rel0 = ties[0]
        sets = uf.sets
        for node, rel in ties[1:]:
            union(node, first, rel ^ rel0)
        if uf.sets != sets:
            forest[region] = ties
    return alone


def _covering(came: list, ties):
    """The first (region, its ties, node -> rel of them) in `came` whose
    ties hold every (node, rel) in `ties` up to one flip, so that they
    imply every tie among those nodes; None when there is none."""
    node0, rel0 = ties[0]
    for hit in came:
        tied = hit[2]
        flip = tied.get(node0)
        if flip is None:
            continue
        flip ^= rel0
        for node, rel in ties:
            if tied.get(node) != rel ^ flip:
                break
        else:
            return hit
    return None


def _derive_solve(parent: DomainSolve, gone: list, came: list, circles,
                  was_isolated, tiling: Tiling):
    """The domain solve of `tiling`, derived under the same ribbon facts
    from `parent`, the solve of the tiling it was derived from, where the
    parent's spanning forest certifies it; None otherwise (the caller then
    solves from scratch).  `gone` holds the RegionChecks of the regions
    that went, `came` those of the linked regions that came, `circles`
    the ids of the circles set or deleted, `was_isolated` the parent's.

    The forest is kept by region: the regions whose unions merged two
    classes (_unite), so the classes of their ties are the union-find's.
    The certificate: the parent's system was consistent; the ties of each
    forest region that went, but for those at a deleted circle, are held
    by one region that came (which then implies them, _covering); and so
    are the nodes that forest regions that went tie to each deleted
    circle, so every path through it is implied.  A region that came and
    holds such ties joins the forest.  Then a copy of the parent's
    union-find, less one class per deleted circle without a forest tie
    and with a node per new circle, takes the ties of the regions that
    came.  A deleted circle's node stays in its neighbours' class, so a
    circle that comes under an id the copy holds fails the certificate."""
    uf = parent._uf
    if not uf.ok:
        return None
    facts = tiling.facts
    n_components = facts.vertex_charts[1]
    isolated = tiling.isolated
    size = len(uf.parent)
    new, dead = [], set()
    for cid in circles:
        if cid in isolated:
            if cid not in was_isolated:
                new.append(n_components + cid)
        elif cid in was_isolated:
            dead.add(n_components + cid)
    if new and min(new) < size:
        return None
    forest = parent.forest.copy()
    alone = parent._alone
    held = []          # the ties that a region that came must hold
    star = {}          # deleted circle's node -> (node, rel) tied to it
    for checks in gone:
        ties = forest.pop(checks.region, None)
        if ties is None:
            if checks.ties == ((), ()):
                alone -= 1
            continue
        if dead:
            live = [tie for tie in ties if tie[0] not in dead]
            if not live:
                return None
            node, rel0 = live[0]
            for d, rel in ties:
                if d in dead:
                    star.setdefault(d, []).append((node, rel0 ^ rel))
            ties = live
        if len(ties) > 1:
            held.append(ties)
    held += [ties for ties in star.values() if len(ties) > 1]
    if held:
        charts, vertex_of, memo = facts.vertex_charts[0], facts.vertex_of, facts._ties
        came_ties = []
        for checks in came:
            ties = memo.get(checks.region)
            if ties is None:
                ties = memo[checks.region] = _ties(checks, charts, vertex_of, n_components)
            came_ties.append((checks.region, ties, dict(ties)))
        for ties in held:
            hit = _covering(came_ties, ties)
            if hit is None:
                return None
            forest[hit[0]] = hit[1]
    uf = uf.copy()
    if new:
        top = max(new) + 1
        uf.parent.extend(range(size, top))
        uf.parity.extend([0] * (top - size))
    uf.sets += len(new) - len(dead) + len(star)
    alone += _unite(uf, facts, came, forest)
    return DomainSolve(facts, uf, tiling.euler, tiling.nonorientable, alone, forest)


def domain_solve(tm: TransverseMap) -> DomainSolve:
    """Connectivity and orientation of the domain in one parity union-find.

    Nodes: the graph's vertex components (whose vertex flips the band
    signs fix, ribbon facts) and the isolated circles.  A node's value is
    a chart flip or an isolated circle's own direction flip, and a
    region's reference flip is tied to the nodes it touches.  The corners
    of a ribbon circuit tie its region to the component of the circuit's
    anchor dart by the facts' corner constraints, which are read relative
    to the anchor's vertex and resolved here by its chart flip (_ties).
    An isolated circle is tied to the region on each of its sides by that
    side's direction: a region whose flip equals the circle's induces the
    circle's own direction on side 0 and the opposite one on side 1.  A
    region gets no node: two of its ties fix the xor of their nodes, so
    its ties are united with its first one, and a region with no tie is a
    class of its own; one with exactly one distinct tie can neither join
    two classes nor contradict one, and is left out (it is not linked).
    The classes are the components of the domain, and the domain is
    orientable when the system is consistent and every region kind is.
    The ties of a region are memoized in its RegionChecks, and resolved
    once per ribbon facts.  The answers do not depend on the order of the
    unions: chart flips are read only where the system is consistent.

    The solve is the one of the map's checked tiling (checked_tiling),
    made once per map state from the sums the tiling carries; a map that
    fails validate_map has none.  A tiling derived under the same facts
    (a join, an insert, a relocation) derives its solve from the solve of
    the tiling it came from where that solve's spanning forest certifies
    it (_derive_solve); every other solve unites the ties of every linked
    region from scratch (_solve).  Both unite ties one way (_unite), and a
    circle of id c is node n_components + c in both.
    """
    return checked_tiling(tm, "domain_solve").domain_solve()


def chi_domain(tm: TransverseMap) -> int:
    """The domain's Euler characteristic; Disconnected unless the domain
    is one surface (an empty domain has no component)."""
    solve = domain_solve(tm)
    if solve.components != 1:
        raise Disconnected(f"domain has {solve.components} components")
    return tm.ribbon_facts().graph_euler + solve.regions_euler


def domain_orientable(tm: TransverseMap) -> bool:
    return domain_solve(tm).orientable


def mod2_degree(tm: TransverseMap) -> int:
    counts = tm.ribbon_facts().preimage_counts
    parities = {c % 2 for c in counts.values()}
    if len(parities) > 1:
        raise InconsistentParity(f"preimage parities differ: {counts}")
    return parities.pop() if parities else 0


def signed_degree(tm: TransverseMap) -> int:
    """Signed preimage count over a target vertex, for the canonical
    orientations.  The canonical domain orientation is normalized so the
    identity-like vertex of least id counts +1."""
    signs = tm.target.triangle_signs()
    if signs is None:
        raise NotOrientable("target is not orientable")
    if not domain_orientable(tm):
        raise NotOrientable("domain is not orientable")
    rot_bits = tm.target.rotation_ccw_bits(signs)
    chart_flips = domain_solve(tm).chart_flips
    facts = tm.ribbon_facts()
    charts = facts.vertex_charts[0]
    local = facts.local_signs

    vreps = facts.vertex_reps
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
    return values.pop()


# --------------------------------------------------------------------------
# Constructors


class OneSheetedLift:
    """The one-sheeted lift of a triangulation (the identity map), checked
    from scratch once per (frozen) triangulation (_one_sheeted), with what
    the check of a lift of a cover over it reads off it (lift_facts).

    A branched cover is a local homeomorphism away from its branch
    points, which lie inside triangles.  So once a lift's tables are seen
    to project onto this lift's (pull_back), each local fact of the lift
    is this lift's fact at the image: a vertex's local sign and problems,
    an edge's problems, and the answer of a disk region's circuit, which
    its RegionChecks take (disk_known)."""

    __slots__ = ("map", "facts", "dart_of", "sign", "degree", "_disks")

    def __init__(self, tm: TransverseMap):
        facts = tm.ribbon_facts()
        self.map = tm
        self.facts = facts
        # (target edge, end) -> the dart over it
        self.dart_of = {label: d for d, label in facts.dart_label.items()}
        # dart -> the sign of its edge
        self.sign = {d: facts.edge_sign[min(d, p)] for d, p in facts.pairing.items()}
        sizes = Counter(facts.vertex_of.values())
        # dart -> the number of darts at its vertex
        self.degree = {d: sizes[rep] for d, rep in facts.vertex_of.items()}
        # (label, dart and side of the projected walk's first token, walk
        # length) -> (corner problem, corner bits, class) of a disk's
        # circuit (disk_known)
        self._disks = {}

    def pull_back(self, facts: RibbonFacts) -> bool:
        """Whether the tables of `facts` project onto this lift's; if so,
        the facts get the vertex and edge facts of their images.

        The projection sends each dart to this lift's dart with the same
        label.  After table_problem, read off the facts' own tables, it
        must commute with pairing and rotation, keep edge_sign and
        vertex_label, and send each vertex orbit onto an orbit of the same
        length.  A vertex then reads its image's labels in the same cyclic
        order, so it has its image's local sign and, as this lift passed
        its check, no problem; an edge joins two vertices over the ends of
        its image, with its image's sign, so it has no problem either."""
        one = self.facts
        if facts.target is not one.target or facts.table_problem is not None:
            return False
        labels = facts.dart_label
        try:
            proj = dict(zip(labels, map(self.dart_of.__getitem__, labels.values())))
        except (KeyError, TypeError):
            return False
        image = proj.__getitem__
        pairing, rotation = facts.pairing, facts.rotation
        keys = facts.edge_keys
        sizes = Counter(facts.vertex_of.values())
        # each table read through the projection, against this lift's
        if (list(map(image, pairing.values()))
                != list(map(one.pairing.__getitem__, map(image, pairing)))
                or list(map(image, rotation.values()))
                != list(map(one.rotation.__getitem__, map(image, rotation)))
                or list(facts.vertex_label.values())
                != list(map(one.vertex_label.__getitem__, map(image, facts.vertex_label)))
                or list(map(facts.edge_sign.__getitem__, keys))
                != list(map(self.sign.__getitem__, map(image, keys)))
                or list(sizes.values())
                != list(map(self.degree.__getitem__, map(image, sizes)))):
            return False
        local, vertex_of = one.local_signs, one.vertex_of
        facts.local_signs = {rep: local[vertex_of[proj[rep]]]
                             for rep in facts.vertex_reps}
        facts.vertex_problems = {}
        facts.edge_problems = {}
        facts.target_edges = one.target_edges
        facts._lift = self
        return True

    def disk_known(self, facts: RibbonFacts, region: Region):
        """The answer and class of a region's circuit under facts pulled
        back from this lift (pull_back), as the one entry of a map `known`
        to its RegionChecks, when it has a valid label, one boundary and
        one stored circuit that is a traced circuit; otherwise None.

        The circuit projects token by token onto the walk of this lift
        from the image of its first token, as long as the circuit: around
        an unbranched triangle once, around a branch cycle of length i
        i times.  Its corner problems, corner bits and class read only the
        labels, sides and band signs the projection keeps, so they are
        the walk's, kept as a template per (label, image of the first
        token, length); its walk key and anchor are read off the circuit
        itself."""
        circuits = region.circuits
        if len(circuits) != 1 or region.kind.boundary != 1:
            return None
        circuit = circuits[0]
        if circuit.__class__ is not RibbonCircuit:
            return None
        seq = circuit.seq
        traced = facts.circuit_by_key.get(seq[0]) if seq else None
        if traced is None or (traced is not circuit and traced.seq != seq):
            return None
        label = region.label
        if not 0 <= label < len(facts.target.triangles):
            return None
        key = seq[0]
        template_key = (label, self.dart_of[facts.dart_label[key[0]]], key[1], len(seq))
        template = self._disks.get(template_key)
        if template is None:
            one = self.facts
            walk = one._walk_from(template_key[1:3])
            walk = tuple(walk * (len(seq) // len(walk)))
            template = self._disks[template_key] = (
                one.corner_problem(label, walk), one.corner_constraints(walk)[1],
                one.circuit_class(label, walk))
        problem, bits, cls = template
        return {id(circuit): (circuit, label, (key, problem, seq[1][0], bits), cls)}


@per_triangulation
def _one_sheeted(tri: Triangulation) -> OneSheetedLift:
    """The one-sheeted lift of tri, built and checked from scratch once per
    (frozen) triangulation; InvalidSurface when tri is invalid (the
    one-sheeted cover does not check its base)."""
    problems = tri.validate()
    if problems:
        raise InvalidSurface(f"invalid target: {problems}")
    return OneSheetedLift(map_from_cover(covers_mod.MonodromyCover(
        tri, 1, {e: (1,) for e in range(len(tri.edges))}, {})))


def lift_facts(tm: TransverseMap) -> RibbonFacts:
    """Ribbon facts of tm's tables, for a lift of a cover over tm.target:
    pulled back from the one-sheeted lift where the tables project onto
    it (OneSheetedLift.pull_back), fresh otherwise, as over an invalid
    target."""
    facts = RibbonFacts(tm)
    try:
        lift = _one_sheeted(tm.target)
    except InvalidSurface:
        return facts
    lift.pull_back(facts)
    return facts


def identity_map(tri: Triangulation) -> TransverseMap:
    """The lift of the one-sheeted cover: preimage graph equal to the
    skeleton, one disk region per triangle.  A map over the tables and
    regions of tri's one-sheeted lift (_one_sheeted) that shares no facts
    with it, so what its users check is not memoized there."""
    one = _one_sheeted(tri).map
    return TransverseMap(tri, one.pairing, one.rotation, one.edge_sign,
                         one.vertex_label, one.dart_label, one.isolated, one.regions)


@per_triangulation
def _lift_plan(base: Triangulation) -> tuple:
    """What map_from_cover reads off the base alone, made once per
    triangulation: per triangle, its edges in walk order, each with
    whether the triangle is the edge's first side; per base vertex w,
    (w's sector triangles, the turn of w's corner in its least triangle
    against the fan, the fan's steps (edge, whether it is crossed from
    its first side, the end at w, the triangle whose seam the step
    crosses or None, whether that triangle's corner runs with the
    fan)); each edge's band sign."""
    first_side = [base.edge_sides(e)[0][0] for e in range(len(base.edges))]
    # per triangle, its edges and whether it is each one's first side
    sides = [[(e, first_side[e] == t) for e, _sg in walk]
             for t, walk in enumerate(base.triangles)]
    fans = []
    local = {}        # base vertex -> its lifts' local sign
    for w in base.vertices:
        sectors = base.sector_triangles(w)
        least = min(sectors)
        fan = []
        for i, e in enumerate(base.rotations[w]):
            t = sectors[i]
            walk = base.triangles[t]
            k = base.walk_vertices(t).index(w)   # t's corner: in walk[k-1], out walk[k]
            forward = walk[k - 1][0] == e
            if t == least:
                turn = 1 if forward else -1
            fan.append((e, first_side[e] == sectors[i - 1], int(base.edges[e][1] == w),
                        t if k == 0 else None, forward))
        local[w] = turn if len(fan) > 2 else 1
        fans.append((sectors, turn, fan))
    band = [(1 if base.edge_compatible(e) else -1) * local[a] * local[b]
            for e, (a, b) in enumerate(base.edges)]
    return sides, fans, band


def map_from_cover(cover) -> TransverseMap:
    """Pull the skeleton back through a branched covering: the lifted
    skeleton with one disk region per preimage piece of a triangle (a
    branch cycle of length i gives a single disk with an index-i circuit).

    The lift is read off the cover, and the total space is not assembled;
    the result is the map the assembled space (assemble_total_space)
    gives.  The copies (e, sheet on e's first side) of the edges are
    numbered in the order disk_pieces walks them, copy i having darts 2i
    and 2i + 1 over e's ends 0 and 1.  The lifts of a base vertex w are
    its fan walk (as in MonodromyCover.fan_steps) started once on each
    sheet, and the darts crossed, in order, give a lift's rotation.  The
    assembly's lift walk turns a lift the way its first corner runs, the
    one over w's least triangle (pieces are in triangle order), so all
    lifts of w are reversed where that triangle's corner runs against
    the fan.  A copy's band sign is its base edge's times
    the turns (+1/-1) of its two end vertices, a two-edge vertex counting
    +1 (its rotation reads the target's both ways, see validate_map's
    local signs).  A disk region's label is the triangle of the sector at
    its circuit's first corner.  What depends on the base alone is read
    once per triangulation (_lift_plan).

    A lift of d > 1 sheets is checked by its base: its ribbon facts are
    pulled back from the one-sheeted lift (lift_facts), which is checked
    from scratch once per triangulation (d = 1 takes the from-scratch
    path).  Where the lift's tables project onto that lift's, its
    vertices' local signs and problems, its edges' problems and its
    disks' RegionChecks are those of their images (OneSheetedLift);
    otherwise its facts are fresh.  validate_map then runs its
    cross-region section (owners, side coherence, parity) on those facts
    and leaves the map its tiling, and χ is checked against cover_chi and
    the domain's orientability against the cover's (covers.cover_solve),
    both from the domain solve of that tiling.
    """
    cover.require_valid()
    solve = covers_mod.cover_solve(cover)
    if solve.sets != 1:
        raise DisconnectedCover("total space is not connected")
    base, d = cover.base, cover.d
    sides, fans, band = _lift_plan(base)
    inverse = {e: covers_mod.perm_inv(p) for e, p in cover.edge_perm.items()}

    copy_of = [None] * (len(base.edges) * d)    # e*d + s - 1 -> number of copy (e, s)
    copy_edge = []
    for t, loop in covers_mod.disk_pieces(cover):
        for s in loop:
            for e, first in sides[t]:
                k = e * d + (s if first else inverse[e][s - 1]) - 1
                if copy_of[k] is None:
                    copy_of[k] = len(copy_edge)
                    copy_edge.append(e)

    seams = {}        # branched triangle -> its seam permutation, inverse
    for t, cycles in cover.branch.items():
        if cycles:
            beta = cover.seam_perm(t)
            seams[t] = (beta, covers_mod.perm_inv(beta))
    rotation = {}
    sector_of = {}    # dart -> triangle of the sector after it in rotation
    for sectors, turn, fan in fans:
        steps = [(e, from_first, end, cover.edge_perm[e], inverse[e],
                  seams[t][not forward] if t in seams else None)
                 for e, from_first, end, t, forward in fan]
        for s in range(1, d + 1):
            darts = []
            for e, from_first, end, sigma, sigma_inv, beta in steps:
                if from_first:
                    c, s = s, sigma[s - 1]
                else:
                    c = s = sigma_inv[s - 1]
                darts.append(2 * copy_of[e * d + c - 1] + end)
                if beta:
                    s = beta[s - 1]
            ahead = darts[1:] + darts[:1]
            if turn < 0:
                darts, ahead = ahead, darts
            rotation.update(zip(darts, ahead))
            sector_of.update(zip(darts, sectors))

    # copy i has darts 2i (over its edge's end 0) and 2i + 1 (end 1)
    darts = range(2 * len(copy_edge))
    pairing = {d: d ^ 1 for d in darts}
    dart_label = {d: (copy_edge[d >> 1], d & 1) for d in darts}
    vertex_label = {d: base.edges[e][end] for d, (e, end) in dart_label.items()}
    edge_sign = {2 * i: band[e] for i, e in enumerate(copy_edge)}

    tm = TransverseMap(base, pairing, rotation, edge_sign, vertex_label, dart_label)
    if d > 1:
        tm.hold(lift_facts(tm))
    disk = SurfaceKind(True, 0, 0, 1)
    regions = []
    for c in tm.trace_circuits():
        seq = c.seq      # its first corner runs from seq[1] to seq[2]
        a = seq[1] if seq[1][1] == 1 else seq[2 % len(seq)]
        regions.append(Region(sector_of[a[0]], disk, (c,)))
    tm.replace(append=regions)
    checked_tiling(tm, "map_from_cover")

    chi = chi_domain(tm)
    if chi != covers_mod.cover_chi(cover):
        raise InternalInconsistency("domain Euler characteristic disagrees with the cover")
    if domain_orientable(tm) != solve.ok:
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
    out.replace(regions={region_index: Region(
        reg.label, connected_sum_kind(reg.kind, closed_kind), reg.circuits)})
    checked_tiling(out, "add_pinch")
    return out
