"""Shared constructions for the test suite."""

import random

from surfmap.surfaces import SurfaceKind
from surfmap.transverse import (Region, TransverseMap, classify_circuit,
                                domain_orientable, validate_map,
                                _assign_region_labels)


def tube_double(tri, t0=0, same_direction=True):
    """Two identity-like sheets tube-connected through the regions over
    triangle t0: an annulus region with two index-1 circuits.  The stored
    relative direction selects the degree-2 map (same_direction) or the
    degree-0 fold-like map (opposite)."""
    pairing, rotation, edge_sign, vlab, dlab = {}, {}, {}, {}, {}

    def dart(e, end, copy):
        return 4 * e + 2 * copy + end

    for e, (a, b) in enumerate(tri.edges):
        for copy in (0, 1):
            d0, d1 = dart(e, 0, copy), dart(e, 1, copy)
            pairing[d0], pairing[d1] = d1, d0
            dlab[d0], dlab[d1] = (e, 0), (e, 1)
            vlab[d0], vlab[d1] = a, b
            edge_sign[min(d0, d1)] = 1 if tri.edge_compatible(e) else -1
    for P in tri.vertices:
        rot = tri.rotations[P]
        for copy in (0, 1):
            ds = [dart(e, 0 if tri.edges[e][0] == P else 1, copy) for e in rot]
            for i, d in enumerate(ds):
                rotation[d] = ds[(i + 1) % len(ds)]
    tm = TransverseMap(tri, pairing, rotation, edge_sign, vlab, dlab, {}, [])
    circuits = tm.trace_circuits()
    labels = _assign_region_labels(tm, circuits)
    regions = []
    t0_circuits = []
    for c, lab in zip(circuits, labels):
        if lab == t0:
            t0_circuits.append(c)
        else:
            regions.append(Region(lab, SurfaceKind(True, 0, 0, 1), (c,)))
    assert len(t0_circuits) == 2
    for flip in (False, True):
        cs = (t0_circuits[0],
              t0_circuits[1].reversed() if flip else t0_circuits[1])
        annulus = Region(t0, SurfaceKind(True, 0, 0, 2), cs)
        tm2 = tm.copy()
        tm2.regions = regions + [annulus]
        tm2.invalidate_caches()
        rep = validate_map(tm2)
        assert rep.ok and domain_orientable(tm2), (flip, rep.problems[:2])
        dirs = {classify_circuit(tm2, annulus, c).direction for c in cs}
        if (len(dirs) == 1) == same_direction:
            return tm2
    raise AssertionError("no variant matched the requested direction pattern")


def scrambled(tm, steps, seed):
    """Apply `steps` random trivial-circle insertions, deterministically."""
    from surfmap.moves import insert_trivial_circle
    rng = random.Random(seed)
    work = tm
    for _ in range(steps):
        ri = rng.randrange(len(work.regions))
        edges = work.target.triangle_edges(work.regions[ri].label)
        work = insert_trivial_circle(work, ri, rng.choice(edges))
    return work
