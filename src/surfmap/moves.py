"""The rewrite system on transverse maps.

Three reduction moves (edge collapse, absorbing an isolated circle into
an essential circuit, boundary surgery), crosscap relocation, the
inverse scramblers, and the normalizer that drives them to a fixed
point.  Every move re-derives the region bookkeeping so that the domain
surface (Euler characteristic, orientability, mod-2 degree) is exactly
preserved; each move post-validates and raises InternalInconsistency on
any drift, so convention bugs cannot pass silently.

The post-move check is the full one: validate_map, chi_domain,
domain_orientable, mod2_degree and edge_count on the result.  What it
reuses is memoized or derived, never trusted from the move, which passes
the check nothing: the result's ribbon facts (transverse.RibbonFacts),
its input's own when it shares the input's read-only dart tables (a
join, an insert and a relocation write none), and otherwise facts
derived from those (RibbonFacts.derive, which finds the changed darts in
the tables itself and carries the rest over after the only table edits a
move makes: a collapse deletes two whole vertices and rewires bands, a
surgery only rewires bands); the per-region results in those facts for
every region object the result shares with maps checked before; and the
input's tiling (transverse.Tiling: the owners of the circuits and circle
sides, and the sums the domain solve reads), from which the result's is
derived by the regions and circles the result's record says it changed
(TransverseMap.replace, Tiling.derived).  The result's domain solve,
which chi_domain and domain_orientable share, is made once, from ties
resolved once per ribbon facts.  A join, an insert or a relocation
derives it from its input's solve: a copy of the input's union-find
takes the ties of the regions the move adds, where the input's spanning
forest certifies that the ties of the regions it replaced are still
implied (transverse._derive_solve); otherwise, and after a collapse or
a surgery, it is made from scratch over the linked regions.  Regions
are frozen: a move replaces the regions it changes and shares the rest,
so its check looks again only at those (a join or an insert changes at
most three, a collapse the regions around the collapsed edge).  A
collapse takes its own copy of the tables of its input (TransverseMap.own)
and rewires them in place, a twisted edge in the gauge that flips the
chart at one endpoint, and reads region groups and directions off the
stored circuits through the darts it removes, read once (_stored_through),
as a surgery reads those through its strands (its region's cut circuits
and the far side's circuit count before the move among them) and a join
the one through its strand's far side, with its owner.  The finders,
is_normal and factorize read each region's circuit classes once, off its
RegionChecks.  Each region rule is stated once: the strip-gluing rule
(_glued), which _rebuild_regions applies to a collapse's groups and to a
surgery's far side (one strip joining two regions, or one to itself) and
the join to its far side, and the stored direction across a band
(_stored_end).  Isolated circles keep their ids, so a join deletes one
circle and renumbers nothing.  A move finds the regions it touches as the
owners in its input's tiling (transverse.checked_tiling, which first
checks an input that has none, with the move's name as the context of a
failure); so does the join finder, and normalize checks its input.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import (BadEdge, BadTarget, InternalInconsistency, InvalidChi,
                     NoCrosscap, NotAdjacent, NotCollapsible, NotCompatible,
                     NotEssential, Stuck)
from .surfaces import SurfaceKind, classify_with_boundary
from .transverse import (IsolatedCircle, IsoSide, Region, RibbonCircuit,
                         TransverseMap, checked_tiling, chi_domain,
                         classify_circuit, corners, domain_orientable,
                         edge_count, mod2_degree, rotation_orbit, validate_map)
from .unionfind import ParityUF


# --------------------------------------------------------------------------
# Stored circuits


class _Stored(NamedTuple):
    """The stored ribbon circuits through some tokens (_stored_through):
    each of those tokens -> index of the region storing its circuit, token
    -> next token along each of those circuits, and region index -> the
    positions of those circuits among the region's circuits."""
    region: dict
    succ: dict
    positions: dict


def _stored_through(tiling, tokens: set) -> _Stored:
    """The stored circuits through `tokens`: those of their owners in a
    map's checked tiling, by region index."""
    key_of, stored = tiling.facts.circuit_of_token, tiling.stored
    regions = tiling.regions
    index, tok2reg = {}, {}
    for t in tokens:
        region = stored[key_of[t]].region
        if region not in index:
            index[region] = regions.index(region)
        tok2reg[t] = index[region]
    succ, positions = {}, {}
    for ri in sorted(index.values()):
        cut = positions[ri] = set()
        for pos, c in enumerate(regions[ri].circuits):
            if isinstance(c, RibbonCircuit) and not tokens.isdisjoint(c.seq):
                cut.add(pos)
                seq = c.seq
                succ.update(zip(seq, seq[1:] + seq[:1]))
    return _Stored(tok2reg, succ, positions)


def _circuits_through(tm: TransverseMap, tokens) -> list:
    """The traced circuits of tm through the given tokens, in key order
    (the order of trace_circuits)."""
    facts = tm.ribbon_facts()
    key_of, by_key = facts.circuit_of_token, facts.circuit_by_key
    return [by_key[key] for key in sorted({key_of[t] for t in tokens})]


# --------------------------------------------------------------------------
# Shared bookkeeping helpers


def _post_move_check(before: TransverseMap, after: TransverseMap, *,
                     edge_delta: tuple, context: str) -> TransverseMap:
    """Validate the result in full and check that the domain surface and
    the mod-2 degree did not drift: each measure of `after` against the
    same measure of `before`.  `before` is measured first, so its tiling
    holds a solve (made now for a map that was loaded and checked but
    never solved; a previous move's result keeps the one of its own
    check).  validate_map then derives the result's tiling from the one
    `after` inherited from `before`, sums included, and chi_domain and
    domain_orientable read the one solve made from it.  A failure raises
    InternalInconsistency with the move's name as `context` and the
    first problems as `problems`."""
    def fail(detail, problems):
        raise InternalInconsistency(f"{context}: {detail}", context=context,
                                    problems=problems)

    measures = (("Euler characteristic", chi_domain),
                ("orientability", domain_orientable),
                ("mod-2 degree", mod2_degree))
    was = [measure(before) for _what, measure in measures]
    rep = validate_map(after)
    if not rep.ok:
        fail(f"invalid result: {rep.problems[:4]}", rep.problems[:4])
    for (what, measure), value in zip(measures, was):
        if measure(after) != value:
            fail(f"{what} drifted", [f"{what} drifted"])
    got = edge_count(after) - edge_count(before)
    lo, hi = edge_delta
    if not (lo <= got <= hi):
        detail = f"edge count changed by {got}, expected in [{lo},{hi}]"
        fail(detail, [detail])
    return after


class _GroupTracker:
    """Union-find over the regions a rewrite touches (by region index,
    ascending) with a relative-flip parity.  Each gluing glues a strip
    into a group and is kept as (a region it glued, whether it twisted
    the group: its flip bit contradicted the group's parities).  Groups
    are named by their root region: the root of the second region of a
    gluing's set becomes the root of the union."""

    def __init__(self, regions):
        self.regions = sorted(regions)
        self.node = {ri: i for i, ri in enumerate(self.regions)}
        self.uf = ParityUF(len(self.regions))
        self.gluings = []

    def glue(self, r1: int, r2: int, flip_bit: int):
        self.gluings.append((r1, self.uf.union(self.node[r1], self.node[r2],
                                               flip_bit)))

    def frames(self) -> dict:
        """region index -> (its group's root, its parity relative to the
        root), in region order."""
        find, regions = self.uf.find, self.regions
        return {ri: (regions[root], parity) for ri, node in self.node.items()
                for root, parity in (find(node),)}


def _flip_circuit_entry(c, flip: bool):
    if not flip:
        return c
    if isinstance(c, RibbonCircuit):
        return c.reversed()
    return IsoSide(c.circle, c.side, -c.direction)


def _orient(c: RibbonCircuit, old_succ: dict, strict: bool,
            context: str) -> RibbonCircuit:
    """A rewritten circuit in the direction most of its corners had in
    the stored circuits (successor map old_succ); with `strict`, in an
    orientable setting, votes both ways are a convention error."""
    fwd = bwd = 0
    for a, b in corners(c.seq):
        if old_succ.get(a) == b:
            fwd += 1
        elif old_succ.get(b) == a:
            bwd += 1
    if not fwd and not bwd:
        raise InternalInconsistency(f"{context}: no direction evidence "
                                    "for a rewritten circuit")
    if strict and fwd and bwd:
        raise InternalInconsistency(f"{context}: direction votes conflict")
    return c if fwd >= bwd else c.reversed()


def _kind_from(chi: int, boundary: int, orientable: bool, context: str) -> SurfaceKind:
    try:
        return classify_with_boundary(chi, boundary, orientable)
    except InvalidChi as ex:
        raise InternalInconsistency(f"{context}: no surface fits ({ex})")


def _glued(members, strips: int, twisted: bool, context: str) -> tuple:
    """The strip-gluing rule: (label, Euler characteristic, orientability)
    of the region that `strips` strips glue from the regions `members`,
    `twisted` when a strip contradicts the members' relative flips.  All
    members have one label; χ is their sum less the strips; the region is
    orientable when every member is and no strip twists.  Its kind then
    follows from its boundary circuits (_kind_from)."""
    labels = {region.label for region in members}
    if len(labels) != 1:
        raise InternalInconsistency(f"{context}: merged regions with "
                                    f"different labels {labels}")
    return (labels.pop(), sum(region.kind.euler for region in members) - strips,
            not twisted and all(region.kind.orientable for region in members))


def _stored_end(tm: TransverseMap, tokens: set, succ: dict) -> int:
    """The stored direction across a band: the dart-label end (0 or 1) of
    the dart by which a stored circuit departs, of the two band-adjacent
    `tokens` on one side of a strand (succ: the stored circuits'
    successor map)."""
    dep = next(t for t in tokens if succ.get(t) in tokens)
    return tm.dart_label[dep[0]][1]


# --------------------------------------------------------------------------
# Edge collapse (the move behind the no-fold-edges property)


def collapsible_edges(tm: TransverseMap) -> list:
    """The edge keys, in order, of the edges whose darts carry the same
    half-edge (memoized in the ribbon facts: a shared list; do not
    modify)."""
    return tm.ribbon_facts().collapsible_edges


def collapse_edge(tm: TransverseMap, edge_key: int) -> TransverseMap:
    """Remove an edge whose two darts carry the same target half-edge,
    rejoining the remaining strands around the collapsed band.

    A twisted edge is collapsed in the gauge that reverses the chart at
    its second endpoint, folded into the rewire: that vertex's orbit is
    read backwards, its band signs are negated in the result's tables,
    and the two sides of its darts' tokens are swapped where the collapse
    reads the stored circuits through them (at the corners it glues
    across and at the circles it closes).  Every entry a flip of that
    chart changes is one the collapse deletes, so the result is the
    collapse of the flipped map, where the edge is plain."""
    if edge_key not in tm.pairing or tm.edge_key(edge_key) != edge_key:
        raise NotCollapsible(f"no edge with key {edge_key}")
    d = edge_key
    dp = tm.pairing[d]
    if tm.dart_label[d] != tm.dart_label[dp]:
        raise NotCollapsible(f"edge {edge_key} maps onto its target edge; "
                             "endpoint images differ")
    before = tm
    tiling = checked_tiling(tm, "collapse_edge")

    xs = rotation_orbit(tm.rotation, d)               # starts with d
    if dp in xs:
        raise InternalInconsistency("collapse found a loop edge")
    ys = rotation_orbit(tm.rotation, dp)              # starts with dp
    m = len(xs)
    if len(ys) != m:
        raise InternalInconsistency("collapse endpoints have different degrees")

    # nested matching, labels agreeing: x_i with y_{m-i}, or with y_i in
    # the gauge that reverses the orbit of dp; `mirror` is 1 when that
    # gauge swaps the sides of the tokens at dp's vertex
    mirror = 1 if tm.edge_sign[edge_key] < 0 else 0
    partners = ys[1:] if mirror else ys[:0:-1]
    if any(tm.dart_label[x] != tm.dart_label[y] for x, y in zip(xs[1:], partners)):
        raise InternalInconsistency("collapse strands do not match by label")

    # the regions through the darts of the two endpoints, and their stored
    # circuits
    dead = set(xs) | set(ys)
    dead_tokens = {(x, s) for x in dead for s in (0, 1)}
    stored = _stored_through(tiling, dead_tokens)
    tok2reg, succ = stored.region, stored.succ

    def corner_pass_bit(da, db, swap=0):
        """0 if some stored circuit passes the corner (da -> db) forward:
        from side 1 of da to side 0 of db, the sides swapped with `swap`."""
        a, b = (da, 1 - swap), (db, swap)
        if succ.get(a) == b:
            return 0, tok2reg[a]
        if succ.get(b) == a:
            return 1, tok2reg[b]
        raise InternalInconsistency("corner not on any stored circuit")

    groups = _GroupTracker(stored.positions)
    for i in range(1, m - 1):
        pv, rv = corner_pass_bit(xs[i], xs[i + 1])
        pw, rw = corner_pass_bit(partners[i], partners[i - 1], mirror)
        groups.glue(rv, rw, pv ^ pw)

    # the result takes its own copy of the five tables, rewired in place
    # below into the result's; its ribbon facts are derived from tm's
    out = tm.copy()
    pairing, rotation, sign, vertex_label, dart_label = out.own(
        "pairing", "rotation", "edge_sign", "vertex_label", "dart_label")
    if mirror:
        for y in ys:
            k = min(y, pairing[y])
            sign[k] = -sign[k]

    # rewire: each strand x_i, y joins its two far darts a_i, b_i into one
    # band, or closes into an isolated circle
    strands = [(x, y, pairing[x], pairing[y], sign[min(x, pairing[x])],
                sign[min(y, pairing[y])], dart_label[x][0])
               for x, y in zip(xs[1:], partners)]
    for a in dead:
        sign.pop(min(a, pairing[a]), None)
    for a in dead:
        del pairing[a], rotation[a], vertex_label[a], dart_label[a]
    circles = {}              # the new circles, by id
    circle_info = []          # (circle id, strand dart x_i, its partner y, mirror)
    cid = out.next_circle_id()
    for x, y, a_i, b_i, s_x, s_y, edge in strands:
        if a_i == y:
            # a parallel strand closes into an isolated circle, two-sided:
            # its band is a fold edge between the two endpoints, so the
            # band-sign check gives it the collapsed edge's sign, plain here
            circles[cid] = IsolatedCircle(edge)
            circle_info.append((cid, x, y, mirror))
            cid += 1
            continue
        pairing[a_i] = b_i
        pairing[b_i] = a_i
        sign[min(a_i, b_i)] = s_x * s_y

    out.replace(regions=_rebuild_regions(tm.regions, out, groups, stored, dead_tokens,
                                         circle_info=circle_info,
                                         context="collapse_edge"),
                circles=circles)
    return _post_move_check(before, out, edge_delta=(-m, -1),
                            context="collapse_edge")


def _rebuild_regions(regions: tuple, out: TransverseMap,
                     groups: _GroupTracker, stored: _Stored,
                     dead_tokens=frozenset(), *, circle_info=(),
                     context: str = "") -> dict:
    """The changes (index -> region, or None) of the regions that a ribbon
    rewrite glues with strips: the one region rebuild of a collapse and
    of a surgery's far side.

    regions: the pre-move regions; groups: the regions with a stored
    circuit through a token where the rewrite cuts the glued regions'
    circuits (a cut token: for a collapse, one of the dead darts; for a
    surgery, one of its strands' far tokens), glued by the rewrite's
    strips; stored: the stored circuits through the cut tokens, of those
    regions and possibly others (_stored_through, in the gauge the
    rewrite reads); dead_tokens: the tokens of the darts the rewrite
    deleted; out: the post-move map, its tables rewired, with the
    isolated circles the rewrite makes described by circle_info (circle
    id, strand dart, the strand's other dart, and 1 where the rewrite
    reads that dart's token sides swapped, else 0).  Only those regions are
    rebuilt: a circuit of theirs through no cut token runs through no
    rewired dart (every rewired dart is band-adjacent to a cut token), so
    it is a traced circuit of out as it stands, and every traced circuit
    of out through a token of a rebuilt region is made of the surviving
    tokens of the cut circuits, so only those are read for group roots
    and directions.  Each group becomes one region by the strip-gluing
    rule (_glued), bounded by its ribbon circuits in key order (the order
    of trace_circuits), then its isolated sides."""
    frames = groups.frames()
    strips, twisted, members = Counter(), set(), {}
    for ri, twist in groups.gluings:
        root = frames[ri][0]
        strips[root] += 1
        if twist:
            twisted.add(root)
    for ri, (root, _parity) in frames.items():
        members.setdefault(root, []).append(regions[ri])
    glued = {root: _glued(group, strips[root], root in twisted, context)
             for root, group in members.items()}

    # the glued regions' circuits in group-aligned form: of the cut ones,
    # each token's group root and the token after it in its group's frame
    key_of = out.ribbon_facts().circuit_of_token
    tok2root, old_succ = {}, {}
    old_iso_entries = {}      # group root -> list[IsoSide] (aligned)
    new_circuits = {root: [] for root in glued}   # (key, circuit)
    for ri, (root, parity) in frames.items():
        cut = stored.positions.get(ri, ())
        for pos, c in enumerate(regions[ri].circuits):
            if pos in cut:
                seq = c.seq
                tok2root.update(dict.fromkeys(seq, root))
                nxt = seq[1:] + seq[:1]
                old_succ.update(zip(nxt, seq) if parity else zip(seq, nxt))
                continue
            c2 = _flip_circuit_entry(c, parity)
            if isinstance(c2, IsoSide):
                old_iso_entries.setdefault(root, []).append(c2)
            else:
                new_circuits[root].append((key_of[c.seq[0]], c2))

    for c in _circuits_through(out, tok2root.keys() - dead_tokens):
        roots = set(map(tok2root.get, c.seq))
        if len(roots) != 1 or None in roots:
            raise InternalInconsistency(f"{context}: rewritten circuit spans "
                                        f"{len(roots)} region groups")
        root = roots.pop()
        new_circuits[root].append((c.seq[0], _orient(c, old_succ, glued[root][2],
                                                     context)))

    # new isolated circles created by the rewrite
    new_iso_entries = {}
    for cid, strand, partner, swap in circle_info:
        for side in (0, 1):
            tok = (strand, side)
            root = tok2root[tok]
            # direction +1: the aligned stored walk leaves the vertex; the
            # strand's band is plain (a twisted one closes no circle)
            across = (partner, (1 - side) ^ swap)
            direction = 1 if old_succ.get(tok) == across else -1
            new_iso_entries.setdefault(root, []).append(
                IsoSide(cid, side, direction))

    rebuilt = {}
    for root, (label, chi, orientable) in glued.items():
        circuits = tuple([c for _key, c in sorted(new_circuits[root],
                                                  key=lambda kc: kc[0])]
                         + old_iso_entries.get(root, [])
                         + new_iso_entries.get(root, []))
        rebuilt[root] = Region(label, _kind_from(chi, len(circuits), orientable,
                                                 context), circuits)
    return {ri: rebuilt.get(ri) for ri in frames}


# --------------------------------------------------------------------------
# Absorbing an isolated circle


def join_isolated_circle(tm: TransverseMap, iso_index: int,
                         region_index: int, circuit_pos: int) -> TransverseMap:
    """Merge an isolated circle (by position in tm.isolated) into an
    essential circuit of a region it bounds, through a tube inside that
    region.  The region gives up the circle's side (χ + 1); on the far
    side the tube's strip glues the circle's far region to the region
    storing the strand's far circuit, or that region to itself, by the
    strip-gluing rule (_glued), the circuits kept in their order."""
    if not (0 <= iso_index < len(tm.isolated)):
        raise NotAdjacent(f"no isolated circle {iso_index}")
    if not (0 <= region_index < len(tm.regions)):
        raise NotAdjacent(f"no region {region_index}")
    cid = list(tm.isolated)[iso_index]
    A = tm.regions[region_index]
    side_entry = next((c for c in A.circuits
                       if isinstance(c, IsoSide) and c.circle == cid), None)
    if side_entry is None:
        raise NotAdjacent("the circle is not a boundary circuit of that region")
    if not (0 <= circuit_pos < len(A.circuits)):
        raise NotEssential("no such circuit")
    alpha1 = A.circuits[circuit_pos]
    cls = classify_circuit(tm, A, alpha1)
    if cls.variant != "essential":
        raise NotEssential("target circuit is not essential")
    e0 = tm.isolated[cid].edge
    if e0 not in tm.target.triangle_edges(A.label):
        raise NotAdjacent("circle label is not an edge of the region's triangle")

    # canonical strand of alpha1 over e0
    strand_pos = None
    for i in range(0, len(alpha1.seq), 2):
        if tm.label_edge(alpha1.seq[i][0]) == e0:
            strand_pos = i
            break
    if strand_pos is None:
        raise NotEssential("essential circuit misses the circle's edge")
    dep, arr = alpha1.seq[strand_pos], alpha1.seq[strand_pos + 1]
    d_S = tm.dart_label[dep[0]][1]            # 0 iff departing the end-0 dart

    # far side of the strand: the region storing the traced circuit
    # through its two (band-adjacent) far tokens, read with that circuit
    # from the input's tiling; and the region on the circle's other side
    far_tokens = {(dep[0], 1 - dep[1]), (arr[0], 1 - arr[1])}
    far_side = (cid, 1 - side_entry.side)
    tiling = checked_tiling(tm, "join_isolated_circle")
    stored = _stored_through(tiling, far_tokens)
    if len(stored.positions) != 1:
        raise InternalInconsistency("strand sides are inconsistent")
    (r2,) = stored.positions
    rb = tm.regions.index(tiling.owner[far_side].region)
    d_R = _stored_end(tm, far_tokens, stored.succ)
    delta_b = next(c.direction for c in tm.regions[rb].circuits
                   if isinstance(c, IsoSide) and (c.circle, c.side) == far_side)
    delta_a = side_entry.direction
    if rb == region_index:
        raise InternalInconsistency("circle has the same region on both sides")

    mu = 1 if d_R == d_S else 0
    flip_needed = mu ^ (1 if delta_a == delta_b else 0)

    def without_circle(circuits):
        return tuple(c for c in circuits
                     if not (isinstance(c, IsoSide) and c.circle == cid))

    # region A: drop the circle slot, boundary count down by one
    changes = {region_index: Region(
        A.label,
        _kind_from(A.kind.euler + 1, A.kind.boundary - 1, A.kind.orientable,
                   "join_isolated_circle"),
        without_circle(A.circuits))}

    # far side: the tube's strip glues the circle's far region RB to R2,
    # with RB's circuits flipped into R2's frame, or R2 to itself, twisted
    # under a flip; the circuits keep their order, R2's before RB's
    R2 = changes.get(r2, tm.regions[r2])
    members, circuits = [R2], without_circle(R2.circuits)
    if rb != r2:
        members.append(tm.regions[rb])
        circuits += tuple(_flip_circuit_entry(c, bool(flip_needed))
                          for c in without_circle(tm.regions[rb].circuits))
    label, chi, orientable = _glued(members, 1, rb == r2 and flip_needed == 1,
                                    "join_isolated_circle")
    changes[r2] = Region(label, _kind_from(chi, len(circuits), orientable,
                                           "join_isolated_circle"), circuits)
    if rb != r2:
        changes[rb] = None

    work = tm.copy()
    work.replace(regions=changes, circles={cid: None})
    return _post_move_check(tm, work, edge_delta=(-1, -1),
                            context="join_isolated_circle")


# --------------------------------------------------------------------------
# Scramblers


def insert_trivial_circle(tm: TransverseMap, region_index: int,
                          t_edge: int) -> TransverseMap:
    """Add a nullhomotopic circle inside a region, with a fresh disk
    region on its far side labeled by the opposite triangle."""
    if not (0 <= region_index < len(tm.regions)):
        raise BadEdge(f"no region {region_index}")
    A = tm.regions[region_index]
    if t_edge not in tm.target.triangle_edges(A.label):
        raise BadEdge("edge is not on the region's triangle")
    t1, t2 = (s[0] for s in tm.target.edge_sides(t_edge))
    other = t2 if A.label == t1 else t1
    work = tm.copy()
    cid = work.next_circle_id()
    work.replace(
        regions={region_index: Region(
            A.label,
            _kind_from(A.kind.euler - 1, A.kind.boundary + 1, A.kind.orientable,
                       "insert_trivial_circle"),
            A.circuits + (IsoSide(cid, 0, 1),))},
        append=(Region(other, SurfaceKind(True, 0, 0, 1), (IsoSide(cid, 1, -1),)),),
        circles={cid: IsolatedCircle(t_edge)})
    return _post_move_check(tm, work, edge_delta=(1, 1),
                            context="insert_trivial_circle")


# --------------------------------------------------------------------------
# Boundary surgery


def _strand_info(tm: TransverseMap, region_index: int, dart: int,
                 tok2reg: dict, succ: dict):
    """A-side data for the strand through `dart`: tokens, side bit at the
    end-0 dart, stored direction bit.  tok2reg maps the tokens of the
    strand to the regions storing their circuits, and succ the tokens of
    those circuits (_stored_through)."""
    if dart not in tm.pairing:
        raise NotCompatible(f"no dart {dart}")
    d1, d2 = dart, tm.pairing[dart]
    l1, l2 = tm.dart_label[d1], tm.dart_label[d2]
    if l1 == l2:
        raise NotCompatible("strand folds back; collapse it instead")
    u = d1 if l1[1] == 0 else d2        # the end-0 dart
    w = tm.pairing[u]
    xi = next((x for x in (0, 1) if tok2reg.get((u, x)) == region_index), None)
    if xi is None:
        raise NotCompatible("strand does not bound the given region")
    side_tokens = {(u, xi), tm.band_step((u, xi))}
    sigma = _stored_end(tm, side_tokens, succ)   # 0: departs the end-0 dart
    far = {(u, 1 - xi)} | {tm.band_step((u, 1 - xi))}
    return {
        "u": u, "w": w,
        "edge": l1[0],
        "xi": xi,
        "sigma": sigma,
        "tokens": side_tokens,
        "far_tokens": far,
    }


def boundary_surgery(tm: TransverseMap, region_index: int,
                     dart1: int, dart2: int) -> TransverseMap:
    """Cut two strands of a region mapping over the same target edge and
    reconnect them crosswise through the region, matching half-edge
    labels (so a collapsible edge appears).  Requires a coorientation:
    opposite stored directions, or a crosscap to route through.  The
    region either splits off a disk (both strands on one circuit, no
    crosscap) or gets one retraced circuit and χ + 1 (two circuits
    merged, or one rejoined through a crosscap).  The far side is a
    corridor, one strip that joins the two far regions or one to itself,
    rebuilt as a collapse rebuilds its groups (_rebuild_regions)."""
    if not (0 <= region_index < len(tm.regions)):
        raise NotCompatible(f"no region {region_index}")
    strands = {(d, x) for dart in (dart1, dart2) if dart in tm.pairing
               for d in (dart, tm.pairing[dart]) for x in (0, 1)}
    stored = _stored_through(checked_tiling(tm, "boundary_surgery"), strands)
    tok2reg, succ = stored.region, stored.succ
    before = tm
    work = tm.copy()
    A = work.regions[region_index]

    s1 = _strand_info(work, region_index, dart1, tok2reg, succ)
    s2 = _strand_info(work, region_index, dart2, tok2reg, succ)
    if s1["u"] == s2["u"]:
        raise NotCompatible("the two positions lie on one strand")
    if s1["edge"] != s2["edge"]:
        raise NotCompatible("strands map over different target edges")

    if s1["sigma"] != s2["sigma"]:
        route_crosscap = False
    elif not A.kind.orientable:
        route_crosscap = True
    else:
        raise NotCompatible("same-direction strands of an orientable region "
                            "admit no compatible coorientation")

    u1, w1, u2, w2 = s1["u"], s1["w"], s2["u"], s2["w"]

    # far-side owners and direction bits before rewiring
    def far_data(s):
        toks = s["far_tokens"]
        owners = {tok2reg[t] for t in toks}
        if len(owners) != 1:
            raise InternalInconsistency("far side owned by several regions")
        return owners.pop(), _stored_end(work, toks, succ)

    rfar1, fsig1 = far_data(s1)
    rfar2, fsig2 = far_data(s2)
    ftoks = s1["far_tokens"] | s2["far_tokens"]
    if rfar1 == region_index or rfar2 == region_index:
        raise InternalInconsistency("far side equals the cut region")

    # A owns no far token, so its stored circuits through the strands are
    # those through their A-side tokens: one or two; the far regions' are
    # the far side's circuits before the move
    cut = stored.positions[region_index]
    gamma_same = len(cut) == 1
    far_before = sum(len(stored.positions[ri]) for ri in {rfar1, rfar2})

    sb1 = 0 if work.edge_sign[work.edge_key(u1)] > 0 else 1
    sb2 = 0 if work.edge_sign[work.edge_key(u2)] > 0 else 1
    sbF0 = 1 ^ s1["xi"] ^ s2["xi"]
    sbF1 = sb1 ^ sb2 ^ sbF0

    # rewire: delete the old edge keys before installing the new ones
    pairing, sign = work.own("pairing", "edge_sign")
    for k in (min(u1, w1), min(u2, w2)):
        del sign[k]
    pairing[u1], pairing[u2] = u2, u1
    pairing[w1], pairing[w2] = w2, w1
    sign[min(u1, u2)] = 1 if sbF0 == 0 else -1
    sign[min(w1, w2)] = 1 if sbF1 == 0 else -1

    # --- region A restructuring ------------------------------------------------
    # the retraced circuits are made of A's stored circuits through the
    # strands, so succ, which holds those, gives their directions
    new_A_side = _circuits_through(work, s1["tokens"] | s2["tokens"])

    keep = [c for pos, c in enumerate(A.circuits) if pos not in cut]
    extra_region = None
    if gamma_same and not route_crosscap:
        if len(new_A_side) != 2:
            raise InternalInconsistency("surgery: expected circuit split")
        # canonical planar cut: all genus and other circuits stay on piece 1,
        # piece 2 is a fresh disk bounded by the circuit through position 2
        tok_pref = next(iter(s2["tokens"]))
        c_disk = next(c for c in new_A_side if tok_pref in set(c.seq))
        c_keep = next(c for c in new_A_side if c is not c_disk)
        circuits = keep + [_orient(c_keep, succ, A.kind.orientable,
                                   "boundary_surgery")]
        kind = _kind_from(A.kind.euler, len(circuits),
                          A.kind.orientable, "boundary_surgery")
        extra_region = Region(A.label, SurfaceKind(True, 0, 0, 1),
                              (_orient(c_disk, succ, True,
                                       "boundary_surgery"),))
    else:
        # a merge of two circuits, or a twisted rejoin of one through a
        # crosscap (which leaves A orientable when it was its only one)
        if len(new_A_side) != 1:
            raise InternalInconsistency("surgery: expected one retraced circuit")
        circuits = keep + [_orient(new_A_side[0], succ,
                                   A.kind.orientable and not route_crosscap,
                                   "boundary_surgery")]
        orientable = A.kind.orientable or (gamma_same and A.kind.crosscaps == 1)
        kind = _kind_from(A.kind.euler + 1, len(circuits), orientable,
                          "boundary_surgery")

    # --- far-side corridor gluing ------------------------------------------------
    # reference alignment of each far region in its strand frame is
    # fsig ^ sigma ^ 1; the frames differ by the route twist, which itself
    # is [sigma1 == sigma2], so the twist cancels and only the fsig bits
    # decide whether the second far region must flip.  The corridor is one
    # strip glued as a collapse glues its strips, with rfar1 as the root
    flip_far = 1 if fsig1 == fsig2 else 0
    expect = 2 if far_before == 1 and not flip_far else 1
    traced = len(_circuits_through(work, ftoks))
    if traced != expect:
        raise InternalInconsistency(f"surgery: far side traced {traced} "
                                    f"circuits, expected {expect}")
    far = _GroupTracker({rfar1, rfar2})
    far.glue(rfar2, rfar1, flip_far)
    changes = _rebuild_regions(work.regions, work, far, stored,
                               context="boundary_surgery far")
    changes[region_index] = Region(A.label, kind, tuple(circuits))

    work.replace(regions=changes,
                 append=() if extra_region is None else (extra_region,))
    return _post_move_check(before, work, edge_delta=(0, 0),
                            context="boundary_surgery")


# --------------------------------------------------------------------------
# Crosscap relocation


def _branchy(region: Region, classes) -> bool:
    """Whether a region can take a crosscap: several boundary circuits or
    an essential one of index above one (`classes` may be a generator)."""
    return len(region.circuits) >= 2 or any(
        c.variant == "essential" and c.index > 1 for c in classes)


def _qualifies_as_target(tm: TransverseMap, region: Region) -> bool:
    facts = tm.ribbon_facts()
    return _branchy(region, facts.checks_of(region).classes(facts))


def relocate_crosscap(tm: TransverseMap, source_index: int,
                      target_index: int) -> TransverseMap:
    """Move one crosscap between regions; legal when the target has a
    disconnected boundary or a boundary of winding index above one."""
    if not (0 <= source_index < len(tm.regions)):
        raise NoCrosscap(f"no region {source_index}")
    if not (0 <= target_index < len(tm.regions)):
        raise BadTarget(f"no region {target_index}")
    src = tm.regions[source_index]
    if src.kind.orientable or src.kind.crosscaps < 1:
        raise NoCrosscap("source region carries no crosscap")
    if not _qualifies_as_target(tm, tm.regions[target_index]):
        raise BadTarget("target needs several boundary circuits or an "
                        "index above one")
    before = tm
    work = tm.copy()
    if source_index == target_index:
        return _post_move_check(before, work, edge_delta=(0, 0),
                                context="relocate_crosscap")
    src = work.regions[source_index]
    tgt = work.regions[target_index]
    work.replace(regions={
        source_index: Region(
            src.label,
            _kind_from(src.kind.euler + 1, src.kind.boundary,
                       src.kind.crosscaps == 1, "relocate_crosscap"),
            src.circuits),
        target_index: Region(
            tgt.label,
            _kind_from(tgt.kind.euler - 1, tgt.kind.boundary, False,
                       "relocate_crosscap"),
            tgt.circuits)})
    return _post_move_check(before, work, edge_delta=(0, 0),
                            context="relocate_crosscap")


# --------------------------------------------------------------------------
# Normal form


def _region_reduced(region: Region, classes: list) -> bool:
    """The reduced-region condition: one essential circuit of index one,
    or an orientable region whose circuits are all essential and run the
    same way."""
    if (len(classes) == 1 and classes[0].variant == "essential"
            and classes[0].index == 1):
        return True
    return (region.kind.orientable
            and all(c.variant == "essential" for c in classes)
            and len({c.direction for c in classes}) <= 1)


def is_normal(tm: TransverseMap) -> dict:
    """Per-property report of the reduced-form conditions."""
    rep = validate_map(tm)
    out = {"valid": rep.ok}
    if not rep.ok:
        out.update({"no_collapsible_edge": False, "no_mixed_circles": False,
                    "regions_reduced": False, "crosscap_separation": False,
                    "graph_like": False, "normal": False})
        return out
    has_vertices = bool(tm.pairing)
    out["graph_like"] = not has_vertices
    out["no_collapsible_edge"] = not collapsible_edges(tm)
    out["no_mixed_circles"] = not (tm.isolated and has_vertices)

    regions_ok = True
    any_nonorientable = False
    any_branchy = False
    if has_vertices:
        facts = tm.ribbon_facts()
        for region in tm.regions:
            classes = facts.checks_of(region).classes(facts)
            if not region.kind.orientable:
                any_nonorientable = True
            if _branchy(region, classes):
                any_branchy = True
            if not _region_reduced(region, classes):
                regions_ok = False
    out["regions_reduced"] = regions_ok
    out["crosscap_separation"] = not (any_nonorientable and any_branchy)
    out["normal"] = (out["no_collapsible_edge"] and out["no_mixed_circles"]
                     and (out["graph_like"]
                          or (out["regions_reduced"] and out["crosscap_separation"])))
    return out


def _find_collapse(tm: TransverseMap):
    cands = collapsible_edges(tm)
    return (cands[0],) if cands else None


def _find_join(tm: TransverseMap):
    """An isolated circle, a region it bounds and an essential circuit of
    that region, on a map with both vertices and isolated circles: the
    first region in order that is bounded by a circle and has an
    essential circuit, its first essential circuit and its circle of
    least position.  The regions are read in order off the map's
    checked tiling, with their memoized RegionChecks and classes; those
    without a circle side are passed over without a look at their
    circuits."""
    if not (tm.isolated and tm.pairing):
        return None
    tiling = checked_tiling(tm, "normalize")
    facts = tiling.facts
    for ri, checks in enumerate(facts.region_checks(tiling.regions)):
        if not checks.iso_sides:
            continue
        pos = next((pos for pos, cls in enumerate(checks.classes(facts))
                    if cls.variant == "essential"), None)
        if pos is not None:
            ids = list(tm.isolated)
            return (min(ids.index(cid) for cid, _side in checks.iso_sides), ri, pos)
    raise Stuck({"reason": "isolated circles but no join target",
                 "state": is_normal(tm)})


def _find_surgery(tm: TransverseMap):
    """A region violating the reduced-region condition plus a canonical
    pair of strand darts over one target edge."""
    facts = tm.ribbon_facts()
    for ri, region in enumerate(tm.regions):
        classes = facts.checks_of(region).classes(facts)
        if _region_reduced(region, classes):
            continue
        ribbons = [(pos, c) for pos, c in enumerate(region.circuits)
                   if isinstance(c, RibbonCircuit)]
        if not ribbons:
            continue
        e0 = min(tm.target.triangle_edges(region.label))

        def strands_on(c):
            return [c.seq[i][0] for i in range(0, len(c.seq), 2)
                    if tm.label_edge(c.seq[i][0]) == e0]

        if not region.kind.orientable and len(ribbons) == 1:
            ss = strands_on(ribbons[0][1])
            if len(ss) >= 2:
                return ri, ss[0], ss[1]
            continue
        if not region.kind.orientable:
            s1 = strands_on(ribbons[0][1])
            s2 = strands_on(ribbons[1][1])
            if s1 and s2:
                return ri, s1[0], s2[0]
            continue
        # orientable with mixed directions: find an opposite pair
        dirs = {}
        for pos, c in ribbons:
            cls = classes[pos]
            if cls.variant == "essential":
                dirs.setdefault(cls.direction, (pos, c))
        if len(dirs) == 2:
            (_p1, c1), (_p2, c2) = dirs[1], dirs[-1]
            s1, s2 = strands_on(c1), strands_on(c2)
            if s1 and s2:
                return ri, s1[0], s2[0]
    return None


def _find_relocation(tm: TransverseMap):
    src = next((ri for ri, region in enumerate(tm.regions)
                if not region.kind.orientable), None)
    if src is None:
        return None
    for ri, region in enumerate(tm.regions):
        if ri != src and _qualifies_as_target(tm, region):
            return src, ri
    return None


def _with_vertices(find):
    """`find` on maps that still have vertices.  A map without any is
    graph-like, hence normal whatever its regions: surgery and crosscap
    relocation stop there."""
    return lambda tm: find(tm) if tm.pairing else None


# The reductions in priority order: (move name, finder, trace params).
# A finder returns the move's arguments after the map, or None.  The
# move itself is looked up in this module when it is applied, so a
# rebound module attribute (a tracing wrapper, say) is the one called.
_REDUCTIONS = (
    ("collapse_edge", _find_collapse, lambda edge: {"edge": edge}),
    ("join_isolated_circle", _find_join,
     lambda iso, ri, pos: {"iso": iso, "region": ri, "circuit": pos}),
    ("boundary_surgery", _with_vertices(_find_surgery),
     lambda ri, d1, d2: {"region": ri, "darts": [d1, d2]}),
    ("relocate_crosscap", _with_vertices(_find_relocation),
     lambda src, tgt: {"source": src, "target": tgt}),
)


def normalize(tm: TransverseMap):
    """Apply moves until none fits: collapses first, then circle joins,
    then surgeries (which enable a collapse), then crosscap relocations
    (which enable a surgery).  Strictly decreasing edge count between
    compound steps forces termination; a run longer than 12 E + 64 steps
    (E the input's edge_count) raises Stuck.

    Each move is looked up in this module as it is applied (_REDUCTIONS),
    so a caller observes the moves by rebinding them.  An input without a
    tiling is checked first (checked_tiling)."""
    checked_tiling(tm, "normalize")
    work = tm
    trace = []
    budget = 12 * edge_count(tm) + 64
    steps = 0
    while True:
        steps += 1
        if steps > budget:
            raise Stuck({"reason": "step budget exhausted",
                         "state": is_normal(work)})
        for move, find, params in _REDUCTIONS:
            args = find(work)
            if args is not None:
                break
        else:
            break
        e0 = edge_count(work)
        after = globals()[move](work, *args)
        trace.append({"move": move, "params": params(*args),
                      "E_before": e0, "E_after": edge_count(after)})
        work = after

    state = is_normal(work)
    if not state["normal"]:
        raise Stuck(state)
    return work, trace
