"""Shared constructions for the test suite."""

import itertools
import random
from dataclasses import replace

from surfmap import covers, moves
from surfmap.covers import (MonodromyCover, assemble_total_space, perm_id,
                            perm_inv, perm_mul, random_cover)
from surfmap.errors import (Disconnected, InternalInconsistency, InvalidChi,
                            InvalidSurface, Stuck, UnknownName, Unsatisfiable)
from surfmap.moves import is_normal
from surfmap.surfaces import (SurfaceKind, Triangulation, builtin_triangulation,
                              classify_surface, classify_with_boundary,
                              derive_rotations)
from surfmap.transverse import (DomainSolve, IsolatedCircle, IsoSide, Region,
                                RegionChecks, RibbonCircuit, RibbonFacts,
                                TransverseMap, add_pinch, checked_tiling,
                                chi_domain, classify_circuit, corners,
                                domain_orientable, domain_solve, identity_map,
                                map_from_cover, mod2_degree, rotation_orbit,
                                signed_degree, validate_map)
from surfmap.unionfind import ParityUF


def two_triangle_sphere():
    """A sphere of two triangles sharing all three edges."""
    V, E = [0, 1, 2], [(0, 1), (1, 2), (0, 2)]
    T = [[(0, 1), (1, 1), (2, -1)], [(2, 1), (1, -1), (0, -1)]]
    return derive_rotations(Triangulation(V, E, T))


def with_rotations_reversed(tri, vertices):
    """tri with the rotations at `vertices` reversed: the same surface, its
    lifts turned the other way."""
    return Triangulation(tri.vertices, tri.edges, tri.triangles,
                         {v: rot[::-1] if v in vertices else rot
                          for v, rot in tri.rotations.items()})


def with_entry(tri, field, i, value):
    """tri with entry i of its `field` (vertices, edges or triangles)
    replaced by `value`."""
    entries = getattr(tri, field)
    return replace(tri, **{field: (*entries[:i], value, *entries[i + 1:])})


def with_rotation(tri, v, rot):
    """tri with rotation `rot` at v."""
    return replace(tri, rotations={**tri.rotations, v: rot})


def disjoint_union(tri, other):
    """tri beside a copy of other, its vertices and edges renumbered past
    tri's."""
    n, m = max(tri.vertices) + 1, len(tri.edges)
    return Triangulation(
        [*tri.vertices, *(v + n for v in other.vertices)],
        [*tri.edges, *((a + n, b + n) for a, b in other.edges)],
        [*tri.triangles, *([(e + m, s) for e, s in w] for w in other.triangles)],
        {**tri.rotations,
         **{v + n: [e + m for e in rot] for v, rot in other.rotations.items()}})


def corner_matched_disks(tm):
    """One disk region per traced circuit of tm, labelled by the target
    triangle whose corner fan matches every corner of the circuit.  Where
    several match (two triangles on the same three edges), the labels
    already given across the circuit's bands are excluded; circuits are
    visited in band-adjacency order, so a labelled neighbour is there to
    exclude.  The package labels a circuit by the triangle at its first
    corner instead; this search is the independent rule the references
    below use."""
    T = tm.target
    circuits = tm.trace_circuits()
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
                raise AssertionError("circuit corners match no triangle")
            labels[i] = min(cands)
            for k in across:
                if k not in queued:
                    queued.add(k)
                    order.append(k)
    return [Region(label, SurfaceKind(True, 0, 0, 1), (c,))
            for c, label in zip(circuits, labels)]


def join_regions(tm, i, j, same_direction=True):
    """The map with regions i and j, over one triangle, joined by a tube
    into one region: chi(M) drops by 2.  Region j's circuits are kept or
    all reversed, whichever gives a valid map whose circuits over the
    joined region run in one direction (same_direction: the degree stays)
    or not (opposite)."""
    ri, rj = tm.regions[i], tm.regions[j]
    assert ri.label == rj.label, (ri.label, rj.label)
    kind = classify_with_boundary(ri.kind.euler + rj.kind.euler - 2,
                                  ri.kind.boundary + rj.kind.boundary,
                                  ri.kind.orientable and rj.kind.orientable)
    for flip in (False, True):
        cs = ri.circuits + (tuple(c.reversed() for c in rj.circuits) if flip
                            else rj.circuits)
        joined = Region(ri.label, kind, cs)
        out = tm.copy()
        out.replace(regions={i: None, j: None}, append=(joined,))
        if not validate_map(out).ok:
            continue
        dirs = {classify_circuit(out, joined, c).direction for c in cs}
        if (len(dirs) == 1) == same_direction:
            return out
    raise AssertionError("no variant matched the requested direction pattern")


def identity_copies(tri, n):
    """n disjoint identity-like sheets over tri, one disk region per
    triangle and sheet (not a valid map for n > 1: its domain is not
    connected until regions are joined)."""
    pairing, rotation, edge_sign, vlab, dlab = {}, {}, {}, {}, {}

    def dart(e, end, copy):
        return 2 * n * e + 2 * copy + end

    for e, (a, b) in enumerate(tri.edges):
        for copy in range(n):
            d0, d1 = dart(e, 0, copy), dart(e, 1, copy)
            pairing[d0], pairing[d1] = d1, d0
            dlab[d0], dlab[d1] = (e, 0), (e, 1)
            vlab[d0], vlab[d1] = a, b
            edge_sign[min(d0, d1)] = 1 if tri.edge_compatible(e) else -1
    for P in tri.vertices:
        rot = tri.rotations[P]
        for copy in range(n):
            ds = [dart(e, 0 if tri.edges[e][0] == P else 1, copy) for e in rot]
            for i, d in enumerate(ds):
                rotation[d] = ds[(i + 1) % len(ds)]
    tm = TransverseMap(tri, pairing, rotation, edge_sign, vlab, dlab, {}, [])
    tm.regions = corner_matched_disks(tm)
    return tm


def tube_double(tri, t0=0, same_direction=True):
    """Two identity-like sheets tube-connected through the regions over
    triangle t0: an annulus region with two index-1 circuits.  The stored
    relative direction selects the degree-2 map (same_direction) or the
    degree-0 fold-like map (opposite)."""
    tm = identity_copies(tri, 2)
    i, j = [k for k, r in enumerate(tm.regions) if r.label == t0]
    out = join_regions(tm, i, j, same_direction)
    assert domain_orientable(out)
    return out


def tube_cover_map(*pairs):
    """map_from_cover(random_cover(sphere_tetra, 2, [2, 2], seed=0)) with
    each pair of its regions (indices into that map's regions, both over
    one triangle) joined by a tube, in the order given."""
    tm = map_from_cover(random_cover(builtin_triangulation("sphere_tetra"), 2,
                                     [2, 2], seed=0))
    regions = list(tm.regions)
    for i, j in pairs:
        tm = join_regions(tm, tm.regions.index(regions[i]),
                          tm.regions.index(regions[j]))
    return tm


def assembled_map_from_cover(cover):
    """map_from_cover by way of the assembled total space: the lifted
    skeleton read out of assemble_total_space (edges with a base label,
    in order; rotations with the cone spokes left out; band signs from
    the assembled rotations) and regions labelled by corner_matched_disks,
    a search kept here and used nowhere in the package, so the labels are
    checked against a rule unrelated to map_from_cover's first-corner
    one.  The reference the direct lift is compared against."""
    total, labels = assemble_total_space(cover, with_labels=True)
    vlab, elab = labels["vertices"], labels["edges"]
    keep = sorted(e for e, lab in elab.items() if lab is not None)
    index = {e: i for i, e in enumerate(keep)}
    pairing, rotation, edge_sign, vertex_label, dart_label = {}, {}, {}, {}, {}
    for e in keep:
        (a, b), d0 = total.edges[e], 2 * index[e]
        pairing[d0], pairing[d0 + 1] = d0 + 1, d0
        dart_label[d0], dart_label[d0 + 1] = (elab[e], 0), (elab[e], 1)
        vertex_label[d0], vertex_label[d0 + 1] = vlab[a], vlab[b]
        edge_sign[d0] = 1 if total.edge_compatible(e) else -1
    for v in total.vertices:
        if vlab.get(v) is None:
            continue   # cone center: interior branch point
        ds = [2 * index[e] + (total.edges[e][0] != v)
              for e in total.rotations[v] if elab[e] is not None]
        for i, d in enumerate(ds):
            rotation[d] = ds[(i + 1) % len(ds)]
    tm = TransverseMap(cover.base, pairing, rotation, edge_sign,
                       vertex_label, dart_label, {}, [])
    tm.regions = corner_matched_disks(tm)
    return tm


def scrambled(tm, steps, seed, check=None):
    """Apply `steps` random trivial-circle insertions, deterministically,
    calling `check` (when given) on each result."""
    from surfmap.moves import insert_trivial_circle
    rng = random.Random(seed)
    work = tm
    for _ in range(steps):
        ri = rng.randrange(len(work.regions))
        edges = work.target.triangle_edges(work.regions[ri].label)
        work = insert_trivial_circle(work, ri, rng.choice(edges))
        if check is not None:
            check(work)
    return work


def find_join_by_scan(tm):
    """moves._find_join by a scan of every region, classifying the
    circuits of each region bounded by a circle until one is essential:
    the reference the tiling-read finder is compared against."""
    if not (tm.isolated and tm.pairing):
        return None
    for ri, region in enumerate(tm.regions):
        circles = [c.circle for c in region.circuits if isinstance(c, IsoSide)]
        if not circles:
            continue
        for pos, c in enumerate(region.circuits):
            if isinstance(c, RibbonCircuit) and \
                    classify_circuit(tm, region, c).variant == "essential":
                position = tm.circle_positions()
                return min(position[cid] for cid in circles), ri, pos
    raise Stuck({"reason": "isolated circles but no join target",
                 "state": is_normal(tm)})


def normalize_observed(tm, observer):
    """moves.normalize(tm), calling observer(before, after, move name) after
    every move: each move that moves._REDUCTIONS names is rebound in
    moves, where normalize looks it up, for this one call."""
    originals = {name: getattr(moves, name) for name, _find, _params in moves._REDUCTIONS}

    def observed(name, move):
        def run(before, *args):
            after = move(before, *args)
            observer(before, after, name)
            return after
        return run

    try:
        for name, move in originals.items():
            setattr(moves, name, observed(name, move))
        return moves.normalize(tm)
    finally:
        for name, move in originals.items():
            setattr(moves, name, move)


# --------------------------------------------------------------------------
# Edits a move folds into its own


def flip_vertex(tm: TransverseMap, dart_at_vertex: int) -> TransverseMap:
    """Reverse the chart at one vertex: rotation reversed, incident edge
    signs flipped, stored tokens at the vertex mirrored.  A pure
    re-coordinatization; every observable is unchanged.  The regions with
    no stored token at the vertex are shared with tm.  collapse_edge
    collapses a twisted edge in this gauge at its second endpoint without
    making the flipped map; the tests compare the two."""
    out = tm.copy()
    rotation, sign = out.own("rotation", "edge_sign")
    orbit = rotation_orbit(tm.rotation, dart_at_vertex)
    oset = set(orbit)
    n = len(orbit)
    for i, d in enumerate(orbit):
        rotation[d] = orbit[(i - 1) % n]
    for d in orbit:
        k = out.edge_key(d)
        sign[k] = -sign[k]

    def fix(tok):
        d, x = tok
        return (d, 1 - x) if d in oset else tok

    # the regions storing a traced circuit through a token at the vertex:
    # their owners in tm's checked tiling
    tiling = checked_tiling(tm, "flip_vertex")
    key_of, stored = tiling.facts.circuit_of_token, tiling.stored
    owners = {stored[key_of[(d, x)]].region for d in orbit for x in (0, 1)}
    out.replace(regions={
        ri: Region(reg.label, reg.kind,
                   tuple(RibbonCircuit(tuple(fix(t) for t in c.seq))
                         if isinstance(c, RibbonCircuit) else c
                         for c in reg.circuits))
        for ri in sorted(map(tm.regions.index, owners))
        for reg in (tm.regions[ri],)})
    return out


def add_circle(tm: TransverseMap, edge: int) -> int:
    """Add an isolated circle over `edge` to tm, last in order, under the
    id a move gives a new circle (replace); return that id.  The moves set
    their new circles in the one replace of their other edits."""
    cid = tm.next_circle_id()
    tm.replace(circles={cid: IsolatedCircle(edge)})
    return cid


# --------------------------------------------------------------------------
# Fixture maps and covers


def domain_kind(tm: TransverseMap) -> SurfaceKind:
    """The closed surface the domain is."""
    return classify_surface(chi_domain(tm), domain_orientable(tm))


def branched_sphere_double():
    """A double cover of the tetrahedron branched once in each of triangles
    0 and 1: a sphere over the sphere."""
    tet = builtin_triangulation("sphere_tetra")
    return MonodromyCover(tet, 2, {0: (2, 1), 1: (2, 1), 2: (2, 1),
                                   3: (1, 2), 4: (1, 2), 5: (1, 2)},
                          {0: [(2, 1)], 1: [(2, 1)]})


def disjoint_cover(first, second):
    """The cover whose sheets are first's and then second's, renumbered past
    first's: the two covers of one base side by side, a disconnected
    total space."""
    d = first.d

    def shifted(perm):
        return tuple(s + d for s in perm)

    return MonodromyCover(
        first.base, d + second.d,
        {e: first.edge_perm[e] + shifted(second.edge_perm[e]) for e in first.edge_perm},
        {t: [*first.branch.get(t, ()), *map(shifted, second.branch.get(t, ()))]
         for t in first.branch.keys() | second.branch.keys()})


def _fold_degree_zero() -> TransverseMap:
    """Sphere-to-sphere fold of vanishing degree: the target cut along one
    edge gives a disk; the domain is its double, two mirror copies glued
    along the cut, and the preimage graph is the doubled truncated skeleton.
    A disk region's label is the triangle at its circuit's first corner, as
    in map_from_cover; no two triangles of the tetrahedron share two edges,
    so the corner's two edges name it."""
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

    tm = TransverseMap(tri, pairing, rotation, edge_sign, vertex_label, dart_label)
    regions = []
    for c in tm.trace_circuits():
        a, b = next(corners(c.seq))
        ends = {tm.label_edge(a[0]), tm.label_edge(b[0])}
        fits = [t for t, x, y in tri.corners_at(tm.vertex_label[a[0]]) if {x, y} == ends]
        if len(fits) != 1:
            raise InternalInconsistency(f"fold circuit's first corner fits triangles {fits}")
        regions.append(Region(fits[0], SurfaceKind(True, 0, 0, 1), (c,)))
    tm.replace(append=regions)
    checked_tiling(tm, "fold_degree_zero")
    if chi_domain(tm) != 2 or mod2_degree(tm) != 0:
        raise InternalInconsistency("fold model is not a degree-zero sphere map")
    return tm


def builtin_example(name: str) -> TransverseMap:
    """A sphere map with an RP2 pinched into one region ("rp2_pinch"), or
    the sphere fold of degree zero ("fold_degree_zero")."""
    if name == "rp2_pinch":
        tm = identity_map(builtin_triangulation("sphere_tetra"))
        return add_pinch(tm, 0, SurfaceKind(False, crosscaps=1))
    if name == "fold_degree_zero":
        return _fold_degree_zero()
    raise UnknownName(f"unknown example {name!r}; "
                      "choose from ['fold_degree_zero', 'rp2_pinch']")


# --------------------------------------------------------------------------
# The oracle and the fresh facts a map's memoized answers are compared with


def _chi_or_text(tm: TransverseMap):
    """chi_domain, or the text of its Disconnected error."""
    try:
        return chi_domain(tm)
    except Disconnected as ex:
        return str(ex)


def assert_matches_oracle(tm: TransverseMap):
    """tm's problems, circuit classes and domain answers equal those of
    TransverseMap.from_json(tm.to_json()), which shares nothing with tm."""
    fresh = TransverseMap.from_json(tm.to_json())
    live_rep, fresh_rep = validate_map(tm), validate_map(fresh)
    assert live_rep.problems == fresh_rep.problems
    assert live_rep.circuit_classes == fresh_rep.circuit_classes
    assert tm.trace_circuits() == fresh.trace_circuits()
    for region, fresh_region in zip(tm.regions, fresh.regions):
        for c, fc in zip(region.circuits, fresh_region.circuits):
            assert classify_circuit(tm, region, c) == \
                classify_circuit(fresh, fresh_region, fc)
    if live_rep.ok:
        live, again = domain_solve(tm), domain_solve(fresh)
        assert (live.components, live.orientable, live.regions_euler) == \
            (again.components, again.orientable, again.regions_euler)
        if live.orientable:
            assert live.chart_flips == again.chart_flips
        assert _chi_or_text(tm) == _chi_or_text(fresh)
        assert domain_orientable(tm) == domain_orientable(fresh)
        assert mod2_degree(tm) == mod2_degree(fresh)
        if tm.target.orientability() and domain_orientable(tm):
            assert signed_degree(tm) == signed_degree(fresh)


FACT_FIELDS = ("trace_circuits", "circuit_by_key", "circuit_of_token",
               "vertex_of", "vertex_reps", "local_signs", "vertex_charts",
               "table_problem", "vertex_edge_problems", "edge_keys",
               "rot_inv", "preimage_counts", "target_edges")
CHECKS_FIELDS = ("walk_keys", "iso_sides", "problems", "corner_problems",
                 "needs_node", "euler", "orientable", "answers")


def assert_facts_match_fresh(tm: TransverseMap):
    """Every fact, each edge's flanking circuits (_flank), memoized answer
    and RegionChecks in tm's ribbon facts equals what RibbonFacts(tm),
    built from scratch, gives (a region's ties as sets: their order is a
    set's)."""
    live, fresh = tm.ribbon_facts(), RibbonFacts(tm)
    for name in FACT_FIELDS:
        assert getattr(live, name) == getattr(fresh, name), name
    for k in fresh.edge_keys:
        assert live._flank(k) == fresh._flank(k), k
    for checks in live._regions.values():
        again = RegionChecks(fresh, checks.region)
        for name in CHECKS_FIELDS:
            assert getattr(checks, name) == getattr(again, name), name
        assert [set(t) for t in checks.ties] == [set(t) for t in again.ties]
        assert checks.classes(live) == again.classes(fresh)


# --------------------------------------------------------------------------
# References for the cover oracle's checks: Triangulation.validate,
# derive_rotations and MonodromyCover._problems, with the fan walk
# _problems used (fan_product, _seam_step), the corner lists both read
# (corners_at, triangle_corners) and validate's orientation signs
# (triangle_signs), as they read before they were rewritten as flat
# passes, kept verbatim but for their names, the corner cache's key,
# validate's orientability() spelt out and derive_rotations returning a
# new triangulation, as frozen triangulations require (a method's `self`
# is the triangulation or cover passed in).  tests/test_oracle_reference.py
# requires the package's versions to give the same problems, rotations,
# signs and exceptions.  Of the package they call only methods those
# rewrites left as they were (directed_ends, half_edges_at, edge_sides,
# triangle_edges, is_connected, fan_steps, seam_vertex, seam_perm,
# side_triangles) and the permutation helpers.


def reference_validate(self) -> list:
    """Every violated invariant, as strings; empty means valid."""
    problems = []
    vset = set(self.vertices)
    if len(vset) != len(self.vertices):
        problems.append("duplicate vertex ids")
    for e, (a, b) in enumerate(self.edges):
        if a == b:
            problems.append(f"loop edge {e} at vertex {a}")
        if a not in vset or b not in vset:
            problems.append(f"edge {e} references unknown vertex")
    if problems:
        return problems

    for t, walk in enumerate(self.triangles):
        if len(walk) != 3:
            problems.append(f"triangle {t} does not have 3 sides")
            continue
        for i in range(3):
            head = self.directed_ends(walk[i])[1]
            tail = self.directed_ends(walk[(i + 1) % 3])[0]
            if head != tail:
                problems.append(f"triangle {t} boundary walk does not close")
                break
        if len({d[0] for d in walk}) != 3:
            problems.append(f"triangle {t} repeats an edge")

    side_count = [0] * len(self.edges)
    for walk in self.triangles:
        for (e, _s) in walk:
            if 0 <= e < len(self.edges):
                side_count[e] += 1
    for e, n in enumerate(side_count):
        if n != 2:
            problems.append(f"edge {e} lies on {n} triangle sides, expected 2")
    if problems:
        return problems

    # rotations realize the corner structure at every vertex
    for v in self.vertices:
        rot = self.rotations.get(v)
        incident = sorted({e for e, _end in self.half_edges_at(v)})
        if rot is None:
            problems.append(f"missing rotation at vertex {v}")
            continue
        if sorted(rot) != incident:
            problems.append(f"rotation at {v} is not a cyclic order of its edge ends")
            continue
        fan = sorted((a, b) if a < b else (b, a)
                     for (_t, a, b) in reference_corners_at(self, v))
        ring = sorted((a, b) if a < b else (b, a)
                      for a, b in zip(rot, [*rot[1:], *rot[:1]]))
        if fan != ring:
            problems.append(f"rotation at {v} disagrees with the triangle fan")

    if not self.is_connected():
        problems.append("complex is not connected")
    if problems:
        return problems

    try:
        classify_surface(self.euler, reference_triangle_signs(self) is not None)
    except InvalidChi:
        problems.append("V-E+F matches no closed surface")
    return problems


def reference_derive_rotations(tri: Triangulation) -> Triangulation:
    """tri with its rotations derived from its triangle corner fans.

    The corners at v form a 2-regular multigraph on the edge ends at v;
    a valid closed surface makes it a single cycle, which becomes the
    rotation (direction chosen arbitrarily).
    """
    rotations = {}
    for v in tri.vertices:
        corners = reference_corners_at(tri, v)
        if not corners:
            raise InvalidSurface(f"vertex {v} has no incident triangle corners")
        slots = {e: [] for e, _end in tri.half_edges_at(v)}   # edge -> its corners
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


def reference_cover_problems(self) -> list:
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
    ident = perm_id(self.d)
    for v in self.base.vertices:
        if reference_fan_product(self, v) != ident:
            problems.append(f"vertex fan at {v} does not close")
    return problems


def reference_seam_step(self, v, t: int, e_enter: int, e_leave: int) -> tuple:
    """Sheet action of passing t's sector at v from e_enter to e_leave."""
    if v != self.seam_vertex(t) or not self.branch.get(t):
        return perm_id(self.d)
    walk = self.base.triangles[t]
    e_from, e_to = walk[2][0], walk[0][0]
    beta = self.seam_perm(t)
    if (e_enter, e_leave) == (e_from, e_to):
        return beta
    if (e_enter, e_leave) == (e_to, e_from):
        return perm_inv(beta)
    raise InvalidSurface(f"seam sector of triangle {t} at {v} mismatches fan")


def reference_fan_product(self, v, start: int = 0) -> tuple:
    """Sheet monodromy of a small loop around vertex v, read from step
    `start` of fan_steps(v) round."""
    steps = self.fan_steps(v)
    acc = perm_id(self.d)
    for step in steps[start:] + steps[:start]:
        if step[0] == "edge":
            _kind, e, from_t = step
            sigma = self.edge_perm[e]
            p = sigma if from_t == self.side_triangles(e)[0] else perm_inv(sigma)
        else:
            _kind, t, enter, leave = step
            p = reference_seam_step(self, v, t, enter, leave)
        acc = perm_mul(p, acc)
    return acc


def reference_triangle_corners(self, t: int):
    """Corners of triangle t as (vertex, incoming edge, outgoing edge)."""
    walk = self.triangles[t]
    out = []
    for i, d in enumerate(walk):
        nxt = walk[(i + 1) % 3]
        out.append((self.directed_ends(nxt)[0], d[0], nxt[0]))
    return out


def reference_corners_at(self, v):
    """All triangle corners at v as (triangle, incoming, outgoing)."""
    cache = self.__dict__.get("_reference_corners_at")
    if cache is None:
        cache = {w: [] for w in self.vertices}
        for t in range(len(self.triangles)):
            for (w, e_in, e_out) in reference_triangle_corners(self, t):
                cache[w].append((t, e_in, e_out))
        self.__dict__["_reference_corners_at"] = cache
    return cache[v]


def reference_triangle_signs(self):
    """Consistent orientation signs per triangle, or None if impossible.

    Sign +1 keeps the stored walk, -1 reverses it.  Two triangles are
    compatible across a shared edge iff they traverse it oppositely.
    """
    signs = {}
    for seed in range(len(self.triangles)):
        if seed in signs:
            continue
        signs[seed] = 1
        stack = [seed]
        while stack:
            t = stack.pop()
            for e in self.triangle_edges(t):
                sides = self.edge_sides(e)
                (t1, k1), (t2, k2) = sides
                d1 = self.triangles[t1][k1][1]
                d2 = self.triangles[t2][k2][1]
                # opposite traversal <-> same sign
                rel = 1 if d1 != d2 else -1
                for (ta, tb) in ((t1, t2), (t2, t1)):
                    if ta in signs:
                        want = signs[ta] * rel
                        if tb in signs:
                            if signs[tb] != want:
                                return None
                        else:
                            signs[tb] = want
                            stack.append(tb)
    return signs


# --------------------------------------------------------------------------
# A reference for the domain solve: _solve as it gave each linked region a
# union-find node of its own, kept verbatim but for its name, the count
# of regions without a tie that _solve's DomainSolve takes (0: each such
# region has its own node), its spanning forest (none: no solve is
# derived from a reference one), and the anchor ties, which it resolves
# itself (_reference_anchor_ties, the package's _ties as it was before it
# resolved circle ties too) instead of through the package's memo.  tests/test_load_reference.py requires the
# package's solve to give the same components, orientability and chart
# flips.


def reference_solve(facts: RibbonFacts, isolated: dict, euler: int, nonorientable: int,
                    linked: list) -> DomainSolve:
    """The domain solve of a state with the circles `isolated`, whose
    regions have the sums `euler`, `nonorientable` and `linked` (Tiling):
    the ties of the regions in `linked` are united, each region's anchor
    ties resolved by the chart flips (_reference_anchor_ties)."""
    charts, n_components, _bands_ok = facts.vertex_charts
    vertex_of = facts.vertex_of
    circle_node = dict(zip(isolated, itertools.count(n_components)))
    node = n_components + len(circle_node)
    uf = ParityUF(node + len(linked))
    union = uf.union
    for checks in linked:
        anchored = _reference_anchor_ties(checks, charts, vertex_of)
        # each union hangs the class of its first node under the root of
        # its second's: a region's circles first, then the graph, so the
        # components stay near the roots
        for cid, rel in checks.ties[1]:
            union(node, circle_node[cid], rel)
        for component, rel in anchored:
            union(node, component, rel)
        node += 1
    return DomainSolve(facts, uf, euler, nonorientable, 0, {})


def _reference_anchor_ties(checks, charts: dict, vertex_of: dict) -> tuple:
    """The distinct anchor ties of a region's node, resolved by the chart
    flip of each anchor's vertex: (graph component's number, xor of the
    two values), with bit 0 on a component whose band signs admit no
    flips (the tie then only joins)."""
    resolved = set()
    for dart, bit in checks.ties[0]:
        component, flip = charts[vertex_of[dart]]
        resolved.add((component, 0 if flip is None else flip ^ bit))
    return tuple(resolved)


# -- the sampler's per-try steps, uncompiled: references for its kernels ------

def reference_shuffle_into(getrandbits, steps: tuple, items, out, keys) -> None:
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


def reference_random_branch(getrandbits, steps: tuple, triangles: list, sheets: tuple,
                            spec):
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
    reference_shuffle_into(getrandbits, steps, sheets, branch, lengths_by_t)
    for t, lengths in lengths_by_t.items():
        avail = branch[t]
        cycles = []
        pos = 0
        for ln in lengths:
            cycles.append(tuple(avail[pos:pos + ln]))
            pos += ln
        branch[t] = cycles
    return branch


def reference_walk(word: tuple, perms: list, s: int) -> int:
    """Sheet s carried through `word`, whose steps (slot, inverse?) read the
    forward permutations `perms` by slot; a None slot is the identity."""
    for k, inverse in word:
        p = perms[k]
        if p is not None:
            s = p.index(s) if inverse else p[s]
    return s


def reference_random_cover(tri: Triangulation, d: int, spec, seed: int,
                           max_tries: int) -> tuple:
    """random_cover's tries through the uncompiled steps above, for a
    resolved spec (None or a list of ints) that random_cover does not
    refuse: (the cover it keeps, or None when the tries run out; the
    number of tries made)."""
    rng = random.Random(seed)
    draws, solves, root_word, _walk, assigned = covers._sampler_plan(tri)
    ident = tuple(range(d))
    steps = covers._shuffle_steps(d)
    getrandbits = rng.getrandbits
    triangles = list(range(len(tri.triangles)))
    sheets = tuple(range(1, d + 1))
    for tries in range(1, max_tries + 1):
        branch = reference_random_branch(getrandbits, steps, triangles, sheets, spec)
        cover = MonodromyCover(tri, d, {}, branch)
        perms = covers._sheet_slots(tri, d, branch)
        reference_shuffle_into(getrandbits, steps, ident, perms, draws)
        if reference_walk(root_word, perms, 0) or any(
                reference_walk(root_word, perms, s) != s for s in ident[1:]):
            continue
        table = covers._sheet_table(perms, solves, d)
        for e in assigned:
            cover.edge_perm[e] = tuple(s + 1 for s in table[2 * e])
        assert cover.validate() == []
        if covers.cover_connected(cover):
            return cover, tries
    return None, max_tries
