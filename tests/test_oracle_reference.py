"""The cover oracle's checks against their references: Triangulation.validate,
triangle_signs, derive_rotations, MonodromyCover._problems and
fan_product must give the problems, signs, rotations, sheet actions and
exceptions (type and text) that the verbatim references in helpers
give, on the built-in bases, the bases with some rotations reversed,
every cover of the sampler's fixed calls with its assembled total space,
and seeded mutations of all of them.  assemble_total_space must build
what its union-find reference builds, on those covers and on seeded
covers for every d up to 8 over every base."""

import functools
import random
from dataclasses import replace

import pytest

from record_sampler_digests import CASES
from record_total_space_digests import cover_of
from surfmap.covers import MonodromyCover, assemble_total_space, random_cover
from surfmap.errors import SurfmapError
from surfmap.surfaces import (BUILTIN_NAMES, Triangulation, builtin_triangulation,
                              derive_rotations)

from helpers import (disjoint_union, reference_assemble_total_space,
                     reference_cover_problems, reference_derive_rotations,
                     reference_fan_product, reference_triangle_signs,
                     reference_validate, with_entry, with_rotation,
                     with_rotations_reversed)


def outcome(fn, arg):
    """fn(arg), or the type name and text of what it raised."""
    try:
        return fn(arg)
    except Exception as ex:
        return type(ex).__name__, str(ex)


def derived(derive):
    """The rotations `derive` sets, in the order it sets them."""
    return lambda tri: list(derive(tri).rotations.items())


def signs(triangle_signs):
    """The signs `triangle_signs` gives, in the order it gives them."""
    return lambda tri: None if (got := triangle_signs(tri)) is None else list(got.items())


def assert_triangulation_agrees(tri):
    assert outcome(Triangulation.validate, tri) == outcome(reference_validate, tri)
    assert outcome(signs(Triangulation.triangle_signs), tri) == \
        outcome(signs(reference_triangle_signs), tri)
    bare = replace(tri, rotations={})
    assert outcome(derived(derive_rotations), bare) == \
        outcome(derived(reference_derive_rotations), bare)


def assert_cover_agrees(cover):
    assert outcome(MonodromyCover._problems, cover) == \
        outcome(reference_cover_problems, cover)


def assembled_as_the_reference(cover):
    """cover's assembled total space, checked to have the reference's
    vertices, edges, triangles, rotations (in their order) and projection
    labels, and the rotations derive_rotations reads off its triangles."""
    total, labels = assemble_total_space(cover, with_labels=True)
    want, want_labels = reference_assemble_total_space(cover, with_labels=True)
    assert (total.vertices, total.edges, total.triangles) == \
        (want.vertices, want.edges, want.triangles)
    assert list(total.rotations.items()) == list(want.rotations.items())
    assert labels == want_labels
    assert total.rotations == derive_rotations(replace(total, rotations={})).rotations
    return total


# -- the inputs --------------------------------------------------------------


def bases():
    out = []
    for name in BUILTIN_NAMES:
        tri = builtin_triangulation(name)
        out += [tri, with_rotations_reversed(tri, tri.vertices[::2]),
                with_rotations_reversed(tri, tri.vertices)]
    return out


@functools.lru_cache(maxsize=None)
def sampled_covers() -> tuple:
    """The covers of the sampler's fixed calls, then covers over the
    bases with every other rotation reversed."""
    out = [c for c in map(cover_of, CASES) if c is not None]
    for name in BUILTIN_NAMES:
        tri = builtin_triangulation(name)
        turned = with_rotations_reversed(tri, tri.vertices[::2])
        for d, branch in ((2, None), (2, [2, 2]), (3, [3, 3])):
            try:
                out.append(random_cover(turned, d, branch, seed=0))
            except SurfmapError:
                pass
    return tuple(out)


SEEDED_BRANCHES = (None, [2, 2], [3, 3])


@functools.lru_cache(maxsize=None)
def seeded_covers() -> tuple:
    """Per base, d in 1..8 and branch in SEEDED_BRANCHES, the base's name
    and the cover of the first seed in 0..7 that random_cover keeps
    within 3,000 tries, where one does."""
    out = []
    for name in BUILTIN_NAMES:
        tri = builtin_triangulation(name)
        for d in range(1, 9):
            for branch in SEEDED_BRANCHES:
                for seed in range(8):
                    try:
                        out.append((name, random_cover(tri, d, branch, seed=seed,
                                                         max_tries=3000)))
                        break
                    except SurfmapError:
                        pass
    return tuple(out)


# Mutations of a triangulation: each returns an edited copy, made with the
# draws of `rng`.

def drop_side(tri, rng):
    t = rng.randrange(len(tri.triangles))
    walk = list(tri.triangles[t])
    del walk[rng.randrange(len(walk))]
    return with_entry(tri, "triangles", t, walk)


def add_side(tri, rng):
    t = rng.randrange(len(tri.triangles))
    side = (rng.randrange(len(tri.edges)), rng.choice((1, -1)))
    return with_entry(tri, "triangles", t, (*tri.triangles[t], side))


def flip_sign(tri, rng):
    t = rng.randrange(len(tri.triangles))
    k = rng.randrange(3)
    walk = list(tri.triangles[t])
    e, s = walk[k]
    walk[k] = (e, -s)
    return with_entry(tri, "triangles", t, walk)


def reverse_walk(tri, rng):
    t = rng.randrange(len(tri.triangles))
    return with_entry(tri, "triangles", t, tri.triangles[t][::-1])


def turn_walk(tri, rng):
    """The same triangle walked the other way round: still valid."""
    t = rng.randrange(len(tri.triangles))
    return with_entry(tri, "triangles", t, [(e, -s) for e, s in reversed(tri.triangles[t])])


def duplicate_triangle(tri, rng):
    return replace(tri, triangles=(*tri.triangles, rng.choice(tri.triangles)))


def drop_rotation_entry(tri, rng):
    v = rng.choice(tri.vertices)
    rot = list(tri.rotations[v])
    del rot[rng.randrange(len(rot))]
    return with_rotation(tri, v, rot)


def repeat_rotation_entry(tri, rng):
    v = rng.choice(tri.vertices)
    rot = list(tri.rotations[v])
    rot.insert(rng.randrange(len(rot) + 1), rng.choice(rot))
    return with_rotation(tri, v, rot)


def swap_rotation_entries(tri, rng):
    v = rng.choice(tri.vertices)
    rot = list(tri.rotations[v])
    i, j = rng.sample(range(len(rot)), 2)
    rot[i], rot[j] = rot[j], rot[i]
    return with_rotation(tri, v, rot)


def union_with_itself(tri, rng):
    return disjoint_union(tri, tri)


TRIANGULATION_MUTATIONS = (drop_side, add_side, flip_sign, reverse_walk, turn_walk,
                           duplicate_triangle, drop_rotation_entry,
                           repeat_rotation_entry, swap_rotation_entries,
                           union_with_itself)


def mutated(tri, mutation, seed):
    return mutation(tri, random.Random(seed))


# Mutations of a copy of a cover: each edits it, or returns False when the
# cover has nothing to edit.

def swap_entries(cover, rng):
    if cover.d < 2:
        return False
    e = rng.choice(sorted(cover.edge_perm))
    p = list(cover.edge_perm[e])
    i, j = rng.sample(range(cover.d), 2)
    p[i], p[j] = p[j], p[i]
    cover.edge_perm[e] = tuple(p)


def entry_out_of_range(cover, rng):
    e = rng.choice(sorted(cover.edge_perm))
    p = list(cover.edge_perm[e])
    p[rng.randrange(cover.d)] = rng.choice((0, cover.d + 1))
    cover.edge_perm[e] = tuple(p)


def perm_of_wrong_length(cover, rng):
    e = rng.choice(sorted(cover.edge_perm))
    cover.edge_perm[e] = cover.edge_perm[e] + (cover.d + 1,)


def drop_perm(cover, rng):
    del cover.edge_perm[rng.choice(sorted(cover.edge_perm))]


def unknown_edge(cover, rng):
    cover.edge_perm[rng.choice((-1, len(cover.base.edges)))] = tuple(range(1, cover.d + 1))


def overlapping_cycle(cover, rng):
    if cover.d < 2:
        return False
    t = rng.randrange(len(cover.base.triangles))
    cycles = cover.branch.setdefault(t, [])
    taken = sorted({s for c in cycles for s in c})
    first = rng.choice(taken) if taken else 1
    cycles.append((first, rng.choice([s for s in range(1, cover.d + 1) if s != first])))


def cycle_out_of_range(cover, rng):
    t = rng.randrange(len(cover.base.triangles))
    cover.branch.setdefault(t, []).append((1, cover.d + 1))


def short_cycle(cover, rng):
    cover.branch.setdefault(rng.randrange(len(cover.base.triangles)), []).append((1,))


def drop_cycle(cover, rng):
    branched = sorted(t for t, cycles in cover.branch.items() if cycles)
    if not branched:
        return False
    cycles = cover.branch[rng.choice(branched)]
    del cycles[rng.randrange(len(cycles))]


COVER_MUTATIONS = (swap_entries, entry_out_of_range, perm_of_wrong_length, drop_perm,
                   unknown_edge, overlapping_cycle, cycle_out_of_range, short_cycle,
                   drop_cycle)


def cover_copy(cover):
    return MonodromyCover(cover.base, cover.d, dict(cover.edge_perm),
                          {t: list(cycles) for t, cycles in cover.branch.items()})


# -- the comparisons ---------------------------------------------------------


@pytest.mark.parametrize("index", range(3 * len(BUILTIN_NAMES)))
def test_bases_agree_with_the_references(index):
    assert_triangulation_agrees(bases()[index])


@pytest.mark.parametrize("mutation", TRIANGULATION_MUTATIONS,
                         ids=lambda m: m.__name__)
def test_mutated_bases_agree_with_the_references(mutation):
    for tri in bases():
        for seed in range(6):
            assert_triangulation_agrees(mutated(tri, mutation, seed))


def test_sampled_covers_and_their_total_spaces_agree_with_the_references():
    for i, cover in enumerate(sampled_covers()):
        assert_cover_agrees(cover)
        total = assembled_as_the_reference(cover)
        assert_triangulation_agrees(total)
        mutation = TRIANGULATION_MUTATIONS[i % len(TRIANGULATION_MUTATIONS)]
        assert_triangulation_agrees(mutated(total, mutation, i))


def test_seeded_covers_assemble_as_the_reference_assembles_at_every_d():
    """Unbranched covers at every d from 1 to 8 and branched ones from 2
    to 8, over all five bases."""
    kept = seeded_covers()
    for _name, cover in kept:
        assembled_as_the_reference(cover)
    assert {c.d for _name, c in kept if not c.branch_indices()} == set(range(1, 9))
    assert {c.d for _name, c in kept if c.branch_indices()} == set(range(2, 9))
    assert {name for name, _c in kept} == set(BUILTIN_NAMES)


@pytest.mark.parametrize("mutation", COVER_MUTATIONS, ids=lambda m: m.__name__)
def test_mutated_covers_agree_with_the_references(mutation):
    edited = 0
    for i, cover in enumerate(sampled_covers()):
        copy = cover_copy(cover)
        if mutation(copy, random.Random(i)) is False:
            continue
        edited += 1
        assert_cover_agrees(copy)
    assert edited > 100


def test_fan_products_agree_with_the_reference():
    """fan_product, read from every third step, on the sampled covers and
    on copies with two entries of a permutation swapped."""
    for i, cover in enumerate(sampled_covers()[::5]):
        swapped = cover_copy(cover)
        swap_entries(swapped, random.Random(i))
        for c in (cover, swapped):
            for v in c.base.vertices:
                for k in range(0, len(c.fan_steps(v)), 3):
                    assert c.fan_product(v, k) == reference_fan_product(c, v, k)


def test_a_side_naming_no_edge_is_a_problem_where_the_reference_raised():
    """The one intended difference: the reference indexes the edge table
    with a side's edge and raises."""
    tet = builtin_triangulation("sphere_tetra")
    tri = with_entry(tet, "triangles", 0, ((99, 1), *tet.triangles[0][1:]))
    assert outcome(reference_validate, tri) == ("IndexError", "tuple index out of range")
    assert tri.validate() == ["triangle 0 names edge 99, which the triangulation lacks",
                              "edge 0 lies on 1 triangle sides, expected 2"]
