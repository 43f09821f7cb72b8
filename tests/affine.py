"""Affine groups of the plane over GF(p), built as permutation descriptions.

ASL(2,3), AGL(2,3) and AGL(2,5) separate the two readings of the
U_p-hypercentre in t11 and t12.  They are built here through
`from_description`, not catalogued: the corpus is pinned by the
benchmark's workload list.
"""

from __future__ import annotations

from gpi.arith import factorize
from gpi.catalog import from_description


def _cycles(images: list[int]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in range(len(images)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x]
        if len(cycle) > 1:
            out.append(cycle)
    return out


def least_primitive_root(p: int) -> int:
    """The least a whose powers mod the prime p give every unit."""
    return next(a for a in range(2, p)
                if all(pow(a, (p - 1) // q, p) != 1 for q in factorize(p - 1)))


def affine_description(p: int, general: bool) -> dict:
    """Perm description of ASL(2,p), or AGL(2,p) when `general`, on the
    points of GF(p)^2: a translation, [[1,1],[0,1]] and [[0,-1],[1,0]],
    plus diag(a,1) for AGL, a the least primitive root mod p, so that the
    determinants fill GF(p)*."""
    points = [(x, y) for x in range(p) for y in range(p)]
    index = {v: i for i, v in enumerate(points)}

    def affine(a, b, c, d, shift=0):
        return _cycles([index[((a * x + b * y + shift) % p, (c * x + d * y) % p)]
                        for x, y in points])

    gens = [affine(1, 0, 0, 1, shift=1), affine(1, 1, 0, 1), affine(0, p - 1, 1, 0)]
    if general:
        gens.append(affine(least_primitive_root(p), 0, 0, 1))
    name = f"{'AGL' if general else 'ASL'}(2,{p})"
    return {"type": "perm", "degree": p * p, "generators": gens, "name": name}


AFFINE = {"ASL(2,3)": (3, False), "AGL(2,3)": (3, True), "AGL(2,5)": (5, True)}
_BUILT: dict = {}


def affine_group(name: str):
    """One shared handle per affine group, so lattice work is memoised."""
    if name not in _BUILT:
        _BUILT[name] = from_description(affine_description(*AFFINE[name]))
    return _BUILT[name]
