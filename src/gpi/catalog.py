"""Named builders for the benchmark groups.

Permutation entries are written as cycle tuples; the table-backed entries
(the dicyclic group of order 16, the big semidirect example) carry explicit
product formulas on ids.  Built groups are cached per name, since every handle
memoises its own lattice work; pass fresh=True to rebuild from scratch.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable

from .groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    LimitExceeded,
    PermGroup,
    TableGroup,
    semidirect_product,
)
from .perm import Perm

cyc = Perm.from_cycles


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    tags: frozenset
    build: Callable[[], FiniteGroup] = field(compare=False)


def _perm(name, degree, gen_cycles):
    return PermGroup([cyc(degree, cs) for cs in gen_cycles], degree=degree, name=name)


def _symmetric(n):
    return _perm(f"S{n}", n, [[tuple(range(n))], [(0, 1)]])


def _cyclic(name, n):
    return _perm(name, n, [[tuple(range(n))]])


def _elementary(name, p, k):
    gens = [[tuple(range(i * p, (i + 1) * p))] for i in range(k)]
    return _perm(name, p * k, gens)


def _dicyclic16():
    """<a, b | a^8 = 1, b^2 = a^4, b^-1 a b = a^-1>, with a^k b^e as id 8e + k."""

    def mul(x, y):
        e1, k1 = divmod(x, 8)
        e2, k2 = divmod(y, 8)
        if e1 == 0:
            return 8 * e2 + (k1 + k2) % 8
        if e2 == 0:
            return 8 + (k1 - k2) % 8
        return (k1 - k2 + 4) % 8

    def inv(x):
        e, k = divmod(x, 8)
        return 8 + (k + 4) % 8 if e else -k % 8

    def show(x):
        return f"a{x % 8}" + ("b" if x >= 8 else "")

    return TableGroup(16, mul, inv, gens=[1, 8], label_fn=show, name="Q16")


def _linear(name, p, mats, degree=None):
    """Matrix generators acting on the nonzero vectors of GF(p)^2."""
    vecs = [(x, y) for x in range(p) for y in range(p)][1:]
    idx = {v: i for i, v in enumerate(vecs)}
    gens = []
    for (a, b), (c, d) in mats:
        gens.append(Perm(idx[((a * x + b * y) % p, (c * x + d * y) % p)] for x, y in vecs))
    return PermGroup(gens, degree=degree or len(vecs), name=name)


def _sl23():
    return _linear("SL(2,3)", 3, [(((0, 2), (1, 0))), (((1, 1), (0, 1)))])


def _gl23():
    return _linear("GL(2,3)", 3, [(((0, 2), (1, 0))), (((1, 1), (0, 1))), (((1, 0), (0, 2)))])


def _sl25():
    return _linear("SL(2,5)", 5, [(((0, 4), (1, 0))), (((1, 1), (0, 1)))])


def _big_example():
    """Elementary abelian 5^4 extended by a fixed-point-free order-3 map.

    The normal part is two planes swapped into each other by the action, so
    its minimal normal subgroups come in a large family; the whole group has
    elements of orders 1, 3 and 5 only.
    """
    base = list(itertools.product(range(5), repeat=4))
    idx = {v: i for i, v in enumerate(base)}
    table = array("H", bytes(2 * 625 * 625))
    for i, v in enumerate(base):
        row = i * 625
        v0, v1, v2, v3 = v
        for j, w in enumerate(base):
            table[row + j] = idx[
                ((v0 + w[0]) % 5, (v1 + w[1]) % 5, (v2 + w[2]) % 5, (v3 + w[3]) % 5)
            ]
    neg = [idx[(-v0 % 5, -v1 % 5, -v2 % 5, -v3 % 5)] for v0, v1, v2, v3 in base]
    gens = [idx[(1, 0, 0, 0)], idx[(0, 1, 0, 0)], idx[(0, 0, 1, 0)], idx[(0, 0, 0, 1)]]
    labels = [str(v) for v in base]
    N = TableGroup(625, lambda a, b: table[a * 625 + b], neg.__getitem__, gens=gens,
                   label_fn=labels.__getitem__, name="C5^4")
    C3 = TableGroup(3, lambda a, b: (a + b) % 3, lambda a: -a % 3, gens=[1],
                    label_fn=("e", "t", "t2").__getitem__, name="C3")
    action = [[idx[(0, 1, 0, 0)], idx[(4, 4, 0, 0)], idx[(0, 0, 0, 1)], idx[(0, 0, 4, 4)]]]
    return semidirect_product(N, C3, action, name="5^4:3")


def _entries() -> list[CatalogEntry]:
    corpus = {"corpus"}
    e = [
        ("S3", corpus, _symmetric, (3,)),
        ("S4", corpus, _symmetric, (4,)),
        ("S5", corpus, _symmetric, (5,)),
        ("S6", corpus, _symmetric, (6,)),
        ("A4", corpus, _perm, ("A4", 4, [[(0, 1, 2)], [(0, 1), (2, 3)]])),
        ("A5", corpus, _perm, ("A5", 5, [[(0, 1, 2, 3, 4)], [(0, 1, 2)]])),
        ("C2", set(), _cyclic, ("C2", 2)),
        ("C3", set(), _cyclic, ("C3", 3)),
        ("C4", set(), _cyclic, ("C4", 4)),
        ("C5", set(), _cyclic, ("C5", 5)),
        ("C8", set(), _cyclic, ("C8", 8)),
        ("C9", set(), _cyclic, ("C9", 9)),
        ("C12", corpus, _cyclic, ("C12", 12)),
        ("C2^2", set(), _elementary, ("C2^2", 2, 2)),
        ("C2^3", set(), _elementary, ("C2^3", 2, 3)),
        ("C2^4", corpus, _elementary, ("C2^4", 2, 4)),
        ("C3^2", corpus, _elementary, ("C3^2", 3, 2)),
        ("C5^2", set(), _elementary, ("C5^2", 5, 2)),
        ("C4xC2", set(), _perm, ("C4xC2", 6, [[(0, 1, 2, 3)], [(4, 5)]])),
        ("D8", corpus, _perm, ("D8", 4, [[(0, 1, 2, 3)], [(1, 3)]])),
        ("D16", corpus, _perm, ("D16", 8, [[tuple(range(8))], [(1, 7), (2, 6), (3, 5)]])),
        ("Q8", corpus,
         _perm, ("Q8", 8, [[(0, 1, 2, 3), (4, 7, 5, 6)], [(0, 4, 2, 5), (1, 6, 3, 7)]])),
        ("Q16", corpus, _dicyclic16, ()),
        ("SD16", corpus, _perm, ("SD16", 8, [[tuple(range(8))], [(1, 3), (2, 6), (5, 7)]])),
        ("M16", corpus, _perm, ("M16", 8, [[tuple(range(8))], [(1, 5), (3, 7)]])),
        ("C2xD8", set(), _perm, ("C2xD8", 6, [[(0, 1)], [(2, 3, 4, 5)], [(3, 5)]])),
        ("SL(2,3)", corpus, _sl23, ()),
        ("GL(2,3)", corpus, _gl23, ()),
        ("SL(2,5)", corpus, _sl25, ()),
        ("5^4:3", corpus, _big_example, ()),
    ]
    out = []
    for name, tags, fn, args in e:
        out.append(CatalogEntry(name, frozenset(tags), (lambda f=fn, a=args: f(*a))))
    return out


_ENTRIES = {entry.name: entry for entry in _entries()}
_BUILT: dict[str, FiniteGroup] = {}


def group_names() -> list[str]:
    return list(_ENTRIES)


def corpus_names() -> list[str]:
    return [n for n, e in _ENTRIES.items() if "corpus" in e.tags]


def build_group(name: str, fresh: bool = False) -> FiniteGroup:
    entry = _ENTRIES.get(name)
    if entry is None:
        raise KeyError(f"unknown group {name!r}; known: {', '.join(_ENTRIES)}")
    if fresh:
        return entry.build()
    got = _BUILT.get(name)
    if got is None:
        got = _BUILT[name] = entry.build()
    return got


def _cycle_lists(gens, what: str) -> list:
    """Check that JSON generators are lists of cycles, each a list of points."""
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and all(isinstance(c, list) for c in g) for g in gens
    ):
        raise ValueError(f"{what} must be a list of generators, each a list of cycles")
    return gens


def from_description(desc) -> FiniteGroup:
    """Build a group from a catalog name or a JSON description.

    Objects carry a "type": {"type": "catalog", "name": str};
    {"type": "perm", "degree": int, "generators": [cycle lists]};
    {"type": "semidirect", "normal": desc, "quotient": desc, "action":
    [cycle lists per quotient generator, one image per normal generator]}.
    A missing key or a non-string "name" is reported with its path (`normal.name`).
    """
    return _from_description(desc, "")


def _from_description(desc, where: str) -> FiniteGroup:
    """`from_description` for the description found at path `where`."""
    if isinstance(desc, str):
        return build_group(desc)
    if not isinstance(desc, dict):
        raise ValueError("group description must be a name or an object")

    def get(key):
        if key not in desc:
            raise ValueError(f"group description has no key {where + key!r}")
        return desc[key]

    def name(default: str) -> str:
        got = desc.get("name", default)
        if not isinstance(got, str):
            raise ValueError(f"{where}name must be a string, got {got!r}")
        return got

    kind = desc.get("type")
    if kind == "catalog":
        name = get("name")
        if not isinstance(name, str):
            raise ValueError(f"{where}name must be a catalog name string, got {name!r}")
        return build_group(name)
    if kind == "perm":
        degree = get("degree")
        if type(degree) is not int or degree < 1:
            raise ValueError(f"degree must be a positive integer, got {degree!r}")
        if degree > DEFAULT_LIMITS.max_degree:
            # Checked here because every generator allocates `degree` images.
            raise LimitExceeded(
                f"degree {degree} exceeds the ceiling {DEFAULT_LIMITS.max_degree}"
            )
        gens = [cyc(degree, g) for g in _cycle_lists(get("generators"), where + "generators")]
        return PermGroup(gens, degree=degree, name=name(f"perm{degree}"))
    if kind == "semidirect":
        N = _from_description(get("normal"), where + "normal.")
        Q = _from_description(get("quotient"), where + "quotient.")
        if not isinstance(N, PermGroup):
            raise ValueError("semidirect descriptions act on a permutation-backed normal part")
        action = get("action")
        if not isinstance(action, list):
            raise ValueError("action must be a list of rows, one per quotient generator")
        action = [[cyc(N.degree, img) for img in _cycle_lists(row, where + "action rows")]
                  for row in action]
        return semidirect_product(N, Q, action, name=name(f"{N.name}:{Q.name}"))
    raise ValueError(f"unknown group description type {kind!r}")
