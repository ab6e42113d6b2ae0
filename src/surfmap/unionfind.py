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

    def copy(self) -> "ParityUF":
        """An independent copy."""
        out = ParityUF.__new__(ParityUF)
        out.parent = self.parent.copy()
        out.parity = self.parity.copy()
        out.sets = self.sets
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

    def union(self, x: int, y: int, rel: int) -> bool:
        """Impose value(x) xor value(y) == rel; whether it contradicted
        the class x and y were already in."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != rel:
                self.ok = False
                return True
            return False
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ rel
        self.sets -= 1
        return False
