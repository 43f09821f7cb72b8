"""Permutations of {0, ..., n-1}: the element type of permutation-backed groups."""

from __future__ import annotations

import math


class Perm:
    """A bijection of {0..n-1} stored as its tuple of images.

    Products read left to right: ``(a * b)(x) == b(a(x))``, i.e. apply ``a``
    first.  That convention makes orbit and coset computations read the same
    way they are written.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[v] = True
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Perm":
        """Build a permutation from disjoint cycles, e.g. ``[[0, 1], [2, 4, 3]]``."""
        images = list(range(degree))
        touched = set()
        for cyc in cycles:
            cyc = list(cyc)
            for pt in cyc:
                if type(pt) is not int or not 0 <= pt < degree:  # bools (JSON true) are no points
                    raise ValueError(f"cycle point {pt!r} outside 0..{degree - 1}")
                if pt in touched:
                    raise ValueError(f"point {pt} appears in two cycles")
                touched.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_string()}]"


def compose(a: Perm, b: Perm) -> Perm:
    """Product applying ``a`` first: the result maps x to b(a(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    bi = b.images
    return Perm(bi[x] for x in a.images)
