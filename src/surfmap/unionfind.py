"""The package's one union-find: nodes 0..n-1 with a parity bit per node,
stored in two lists."""

from __future__ import annotations


class ParityUF:
    """Union-find over the nodes 0..n-1 with a parity bit per node (its
    value xor its parent's); solves xor-constraint systems.  `ok` turns
    false at the first contradiction and `sets` counts the classes."""

    __slots__ = ("parent", "parity", "sets", "ok")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.sets = n
        self.ok = True

    def grown(self, extra: int) -> "ParityUF":
        """An independent copy with `extra` more nodes, each a class of its
        own."""
        out = ParityUF.__new__(ParityUF)
        n = len(self.parent)
        out.parent = self.parent + list(range(n, n + extra))
        out.parity = self.parity + [0] * extra
        out.sets = self.sets + extra
        out.ok = self.ok
        return out

    def find(self, x: int) -> tuple:
        """(root of x, value of x xor value of the root), compressing the
        path from x."""
        parent, parity = self.parent, self.parity
        up = parent[x]
        if up == x:
            return x, 0
        if parent[up] == up:      # one step from the root: nothing to compress
            return up, parity[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = 0
        for y in reversed(path):
            acc ^= parity[y]
            parent[y] = x
            parity[y] = acc
        return x, acc

    def union(self, x: int, y: int, rel: int) -> int:
        """Impose value(x) xor value(y) == rel.  Returns JOINED when x and
        y were in two classes, HELD when they were in one and the
        constraint held, and BROKEN when it contradicted the class."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != rel:
                self.ok = False
                return BROKEN
            return HELD
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ rel
        self.sets -= 1
        return JOINED


# what ParityUF.union did with a constraint
HELD, JOINED, BROKEN = 0, 1, 2
