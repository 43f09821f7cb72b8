"""Named builders for the benchmark groups.

Permutation entries are written as cycle tuples; the table-backed entries
carry formulas on ids (Q16 a product rule, 5^4:3 vector addition on ids
packed in base 9, decoded by a 6,561-entry array).  Built groups are
cached per name, since every handle memoises its own lattice work; pass
fresh=True to rebuild from scratch.
"""

from __future__ import annotations

import itertools
from array import array

from . import groups
from .groups import (
    FiniteGroup,
    LimitExceeded,
    PermGroup,
    TableGroup,
    semidirect_product,
)
from .perm import Perm

cyc = Perm.from_cycles


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

    Ids number the vectors of F5^4 in base 5.  Vectors are added packed in
    base 9: each digit of a sum of two packed vectors is at most 8, so no
    digit carries, and a 6,561-entry array decodes each packed sum to the
    id of its digits mod 5.  No addition table is built.
    """
    base = list(itertools.product(range(5), repeat=4))
    idx = {v: i for i, v in enumerate(base)}
    pack = [((v0 * 9 + v1) * 9 + v2) * 9 + v3 for v0, v1, v2, v3 in base]
    decode = [d % 5 for d in range(9)]  # over 9, then 81, 729 and 6561 packed sums
    for _ in range(3):
        decode = [5 * x + d % 5 for x in decode for d in range(9)]
    decode = array("H", decode)
    neg = [idx[(-v0 % 5, -v1 % 5, -v2 % 5, -v3 % 5)] for v0, v1, v2, v3 in base]
    gens = [idx[(1, 0, 0, 0)], idx[(0, 1, 0, 0)], idx[(0, 0, 1, 0)], idx[(0, 0, 0, 1)]]
    labels = [str(v) for v in base]
    N = TableGroup(625, lambda a, b: decode[pack[a] + pack[b]], neg.__getitem__, gens=gens,
                   label_fn=labels.__getitem__, name="C5^4")
    C3 = TableGroup(3, lambda a, b: (a + b) % 3, lambda a: -a % 3, gens=[1],
                    label_fn=("e", "t", "t2").__getitem__, name="C3")
    action = [[idx[(0, 1, 0, 0)], idx[(4, 4, 0, 0)], idx[(0, 0, 0, 1)], idx[(0, 0, 4, 4)]]]
    return semidirect_product(N, C3, action, name="5^4:3")


_ENTRIES = {  # name -> (in the corpus, builder, builder arguments)
    "S3": (True, _symmetric, (3,)),
    "S4": (True, _symmetric, (4,)),
    "S5": (True, _symmetric, (5,)),
    "S6": (True, _symmetric, (6,)),
    "A4": (True, _perm, ("A4", 4, [[(0, 1, 2)], [(0, 1), (2, 3)]])),
    "A5": (True, _perm, ("A5", 5, [[(0, 1, 2, 3, 4)], [(0, 1, 2)]])),
    "C2": (False, _cyclic, ("C2", 2)),
    "C3": (False, _cyclic, ("C3", 3)),
    "C4": (False, _cyclic, ("C4", 4)),
    "C5": (False, _cyclic, ("C5", 5)),
    "C8": (False, _cyclic, ("C8", 8)),
    "C9": (False, _cyclic, ("C9", 9)),
    "C12": (True, _cyclic, ("C12", 12)),
    "C2^2": (False, _elementary, ("C2^2", 2, 2)),
    "C2^3": (False, _elementary, ("C2^3", 2, 3)),
    "C2^4": (True, _elementary, ("C2^4", 2, 4)),
    "C3^2": (True, _elementary, ("C3^2", 3, 2)),
    "C5^2": (False, _elementary, ("C5^2", 5, 2)),
    "C4xC2": (False, _perm, ("C4xC2", 6, [[(0, 1, 2, 3)], [(4, 5)]])),
    "D8": (True, _perm, ("D8", 4, [[(0, 1, 2, 3)], [(1, 3)]])),
    "D16": (True, _perm, ("D16", 8, [[tuple(range(8))], [(1, 7), (2, 6), (3, 5)]])),
    "Q8": (True, _perm, ("Q8", 8, [[(0, 1, 2, 3), (4, 7, 5, 6)], [(0, 4, 2, 5), (1, 6, 3, 7)]])),
    "Q16": (True, _dicyclic16, ()),
    "SD16": (True, _perm, ("SD16", 8, [[tuple(range(8))], [(1, 3), (2, 6), (5, 7)]])),
    "M16": (True, _perm, ("M16", 8, [[tuple(range(8))], [(1, 5), (3, 7)]])),
    "C2xD8": (False, _perm, ("C2xD8", 6, [[(0, 1)], [(2, 3, 4, 5)], [(3, 5)]])),
    "SL(2,3)": (True, _sl23, ()),
    "GL(2,3)": (True, _gl23, ()),
    "SL(2,5)": (True, _sl25, ()),
    "5^4:3": (True, _big_example, ()),
}
_BUILT: dict[str, FiniteGroup] = {}


def group_names() -> list[str]:
    return list(_ENTRIES)


def corpus_names() -> list[str]:
    return [n for n, (in_corpus, _, _) in _ENTRIES.items() if in_corpus]


def build_group(name: str, fresh: bool = False) -> FiniteGroup:
    entry = _ENTRIES.get(name)
    if entry is None:
        raise KeyError(f"unknown group {name!r}; known: {', '.join(_ENTRIES)}")
    _, build, args = entry
    if fresh:
        return build(*args)
    got = _BUILT.get(name)
    if got is None:
        got = _BUILT[name] = build(*args)
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
    Every error names the path of the key it is about (`normal.degree`).
    """
    return _from_description(desc, "")


def _from_description(desc, where: str) -> FiniteGroup:
    """`from_description` for the description found at path `where`."""
    if isinstance(desc, str):
        return build_group(desc)
    if not isinstance(desc, dict):
        raise ValueError(f"{where.rstrip('.') or 'group description'} must be a name or an object")

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
            raise ValueError(f"{where}degree must be a positive integer, got {degree!r}")
        if degree > groups.MAX_DEGREE:
            # Checked here because every generator allocates `degree` images.
            raise LimitExceeded(f"degree {degree} exceeds the ceiling {groups.MAX_DEGREE}")
        gens = [cyc(degree, g) for g in _cycle_lists(get("generators"), where + "generators")]
        return PermGroup(gens, degree=degree, name=name(f"perm{degree}"))
    if kind == "semidirect":
        N = _from_description(get("normal"), where + "normal.")
        Q = _from_description(get("quotient"), where + "quotient.")
        if not isinstance(N, PermGroup):
            raise ValueError(f"{where}normal must be permutation-backed: action rows are cycles")
        action = get("action")
        if not isinstance(action, list):
            raise ValueError(f"{where}action must be a list of rows, one per quotient generator")
        action = [[cyc(N.degree, img) for img in _cycle_lists(row, where + "action rows")]
                  for row in action]
        return semidirect_product(N, Q, action, name=name(f"{N.name}:{Q.name}"))
    raise ValueError(f"{where}type: unknown group description type {kind!r}")
