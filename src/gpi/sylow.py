"""Sylow subgroups and the small-index subgroup families of a p-group.

The Sylow subgroup, the subgroup families and the quaternion-section test
are computed on the ambient group's ids, with no subgroup re-rooted and no
quotient group formed.

The families of a p-group P are built from Frattini-coset codes.  A
Burnside basis (generators independent modulo Phi(P)) gives each x in P its
coordinates v in P/Phi(P) = GF(p)^d, stored as the integer code
sum v_k p^k, and P's ids are grouped by code once.  A subgroup of index p^m
that contains Phi(P) is a union of those cosets, picked out by the zero
codes of a codimension-m subspace; one enumerator lists each such subspace
once, from the free digits of its reduced row echelon rows and the pivot
digits they solve, at p^(d-m) codes per subspace and no filter, and each
family is built once per P and m: the maximal subgroups
(m = 1), the second maximal ones that contain Phi(P) (m = 2) and, when P is
elementary abelian, the subgroups of order p*p (m = d - 2).  A subgroup of
index p*p that does not contain Phi(P) lies in exactly one maximal subgroup
M, namely H*Phi(P), and is found there from M's own codes.  A Q8 section is
found from a pair of its generators' preimages and the relators of Q8.
"""

from __future__ import annotations

from itertools import chain, combinations, compress
from math import gcd
from operator import add

from .arith import factorize, p_part
from .groups import FiniteGroup, LimitExceeded, Subgroup, closure_ids, memo
from .structure import element_power, frattini_subgroup_of_p_subgroup, normal_closure


def _ambient(X) -> tuple[FiniteGroup, Subgroup]:
    if isinstance(X, FiniteGroup):
        X.materialize()
        return X, X.full_subgroup()
    return X.group, X


def sylow_subgroup(G: FiniteGroup, p: int, within: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup of `within` (default: of G), as a subgroup of G.

    A p-group `within` is its own Sylow p-subgroup and is returned as it
    is; a full `within` shares the answer for G.  Otherwise the answer is
    grown once per group and argument (`_grown_sylow`).
    """
    if within is not None:
        if within.is_full:
            within = None
        elif p_part(within.order, p) == within.order:
            return within
    return _grown_sylow(G, p, within)


@memo
def _grown_sylow(G: FiniteGroup, p: int, within: Subgroup | None) -> Subgroup:
    """Grown one generator at a time: while P is not yet a full Sylow
    p-subgroup, its normalizer in `within` contains an element whose
    p-part lies outside P, and adjoining that p-part keeps the closure
    a p-group.  The scan is in id order, so the result is deterministic;
    an element's order (a lookup) is tested before its conjugation of the
    generators so far (products).
    """
    if within is None:
        within = G.full_subgroup()
    target = p_part(within.order, p)
    scan = sorted(within.ids)
    pgens: list[int] = []
    cur: frozenset[int] = frozenset((0,))
    while len(cur) < target:
        grew = False
        for y in scan:
            o = G.element_order(y)
            if o % p or y in cur:
                continue
            if pgens and any(G.conj(m, y) not in cur for m in pgens):
                continue
            y = element_power(G, y, o // p_part(o, p))
            if y in cur:
                continue
            pgens.append(y)
            cur = closure_ids(G, pgens, prior=cur)
            grew = True
            break
        if not grew:
            raise RuntimeError("Sylow growth stalled; the normalizer step is broken")
    return Subgroup(G, cur, gens=pgens)


def cyclic_subgroups_of_order(X, k: int) -> list[Subgroup]:
    """All cyclic subgroups of order k, for X a group or a Subgroup, each
    generated by its least id (read off `_cyclic_subgroups`)."""
    return list(_cyclic_subgroups(X).get(k, ()))


@memo
def _cyclic_subgroups(X) -> dict[int, list[Subgroup]]:
    """Every cyclic subgroup of X by order, each list sorted by `sorted_ids`.

    One scan in id order: an element whose cyclic subgroup was listed
    earlier generates it, so it is skipped; a new subgroup is listed by
    successive powers x^j of its first element x, and its generators are
    marked: x^j generates it when gcd(j, k) = 1 for k = o(x), a mask made
    once per order.
    """
    G, sub = _ambient(X)
    seen: set[int] = set()
    masks: dict[int, list[bool]] = {}
    out: dict[int, list[Subgroup]] = {}
    for x in sorted(sub.ids):
        if x in seen:
            continue
        ids = [0, x]
        y = G.mul(x, x)
        while y:
            ids.append(y)
            y = G.mul(y, x)
        k = G.element_order(x)
        mask = masks.get(k)
        if mask is None:
            mask = masks[k] = [gcd(j, k) == 1 for j in range(k)]
        seen.update(compress(ids, mask))
        out.setdefault(k, []).append(Subgroup(G, ids, gens=[x]))
    for subs in out.values():
        subs.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def two_minimal_subgroups(X, p: int) -> list[Subgroup]:
    """The subgroups of order p*p of X.

    In an elementary abelian p-group P = GF(p)^d they are the subspaces of
    codimension d - 2 (`_frattini_family`); a plane's generators, found on
    first use, are its least nonzero id and the least id outside its line.
    Otherwise: cyclic ones from elements of order p*p, elementary ones
    from commuting pairs of order-p lines.  Each plane is built once, from
    the first pair A, B of its p + 1 lines, as A, B and the (p - 1)^2
    products xy with x in A and y in B both nontrivial; a later pair is
    skipped when its second line lies in a plane built through the first.
    """
    G, sub = _ambient(X)
    if factorize(sub.order).keys() == {p}:
        _, d, cosets = _frattini_cosets(sub)
        if len(cosets[0]) == 1:
            return _frattini_family(sub, d - 2) if d > 1 else []
    out = cyclic_subgroups_of_order(sub, p * p)
    lines = cyclic_subgroups_of_order(sub, p)
    gens = [L.gens[0] for L in lines]
    rest = [[x for x in L.ids if x] for L in lines]  # each line without 1
    line_of = {x: i for i, xs in enumerate(rest) for x in xs}
    covered: list[set[int]] = [set() for _ in lines]  # line numbers of planes through each
    for i, j in combinations(range(len(lines)), 2):
        a, b = gens[i], gens[j]
        if j in covered[i] or G.mul(a, b) != G.mul(b, a):
            continue
        ids = lines[i].ids | lines[j].ids | {G.mul(x, y) for x in rest[i] for y in rest[j]}
        on = {line_of[x] for x in ids if x}
        for k in on:
            covered[k] |= on
        out.append(Subgroup(G, ids, gens=[a, b]))
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def _frattini_cosets(sub: Subgroup) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(p, d, cosets) for a p-group P, with P/Phi(P) = GF(p)^d and cosets[c]
    the ids of the Phi(P)-coset whose coordinates v have the code
    c = sum v_k p^k; so cosets[0] is Phi(P) and there are p^d entries.

    Burnside basis theorem: generators independent modulo Phi(P) give
    P/Phi(P) coordinates directly, with no quotient group.  A basis
    b_0, ..., b_{d-1} is picked greedily from P's generators while the
    walk from Phi's ids by right multiplication with it gives every
    element the coordinates of its Phi-coset, coord(x*b_k) = coord(x) + e_k.
    """
    fac = factorize(sub.order)
    if len(fac) != 1:
        raise ValueError("maximal-subgroup enumeration expects a p-group")
    (p, _), = fac.items()
    G = sub.group
    code = dict.fromkeys(frattini_subgroup_of_p_subgroup(sub, p).ids, 0)
    d = 0
    for b in sub.gens:
        if b in code:
            continue  # b lies in <Phi, basis so far>
        step = p**d
        for x, c in list(code.items()):
            for j in range(1, p):
                x = G.mul(x, b)
                code[x] = c + j * step
        d += 1
    cosets: list[list[int]] = [[] for _ in range(p**d)]
    for x, c in code.items():
        cosets[c].append(x)
    return p, d, tuple(map(tuple, cosets))


def _subspaces(d: int, p: int, m: int):
    """The zero codes of each subspace of codimension m in GF(p)^d, once each.

    A subspace is the common kernel of exactly one m-row matrix in reduced
    row echelon form: pivots i_1 < ... < i_m, row t 0 before i_t, 1 at i_t,
    0 at the other pivots and free elsewhere; so there are [d m]_p of them.
    Each is listed from its solved pivot digits: the d - m digits off the
    pivots are free, and row t sets digit i_t to minus its entries times
    those digits, so a subspace costs its p^(d-m) codes and nothing is
    filtered.  For one set of pivots the codes of the free digits are
    listed once, and so is each row's term (its solved digit times
    p^i_t) on every one of them; a subspace is the sum of the free codes
    and one term per row, taken a list at a time.
    """
    for pivots in combinations(range(d), m):
        free = [k for k in range(d) if k not in pivots]
        codes = [0]  # the pivot digits 0, free[0] varying fastest
        for k in free:
            codes = [c + j * p**k for j in range(p) for c in codes]
        size = len(codes)
        # digit free[j] of the x-th code, times each r in GF(p)
        scaled = [[[x // p**j % p * r for x in range(size)] for r in range(p)]
                  for j in range(len(free))]
        terms = []
        for i in pivots:
            after = [j for j, k in enumerate(free) if k > i]
            rows = [[0] * size]  # each row's entries times the free digits, summed
            for j in after:
                rows = [list(map(add, vals, s)) for vals in rows for s in scaled[j]]
            solved = [-x % p * p**i for x in range((p - 1) ** 2 * len(after) + 1)]
            terms.append([list(map(solved.__getitem__, vals)) for vals in rows])
        yield from _sums(codes, terms)


def _sums(acc: list[int], terms: list[list[list[int]]]):
    # acc plus one term of each row, for every choice of terms
    if not terms:
        yield tuple(acc)
    elif len(terms) == 1:
        for t in terms[0]:
            yield tuple(map(add, acc, t))
    else:
        for t in terms[0]:
            yield from _sums(list(map(add, acc, t)), terms[1:])


def _preimages(G: FiniteGroup, cosets, spaces) -> list[Subgroup]:
    """The preimages of code sets, each the union of its codes' cosets,
    sorted by `sorted_ids`.  A trivial Phi(P) is one id per code.  Each
    member's sorted id list is formed once and is its own sort key; a
    frozenset copied from a set is sized for its length, where one filled
    from a list keeps the larger table its growth left behind."""
    if len(cosets[0]) == 1:
        ids = [c for c, in cosets]
        members = [sorted(map(ids.__getitem__, codes)) for codes in spaces]
    else:
        members = [sorted(chain.from_iterable(map(cosets.__getitem__, codes)))
                   for codes in spaces]
    members.sort()
    return [Subgroup(G, set(m)) for m in members]


@memo
def _frattini_family(sub: Subgroup, m: int) -> list[Subgroup]:
    """The subgroups of a p-group P that contain Phi(P) and have index p^m,
    sorted by `sorted_ids`: the preimages of the codimension-m subspaces of
    P/Phi(P) = GF(p)^d, each a union of Phi-cosets (`_frattini_cosets`),
    so no product is taken once the cosets are known."""
    p, d, cosets = _frattini_cosets(sub)
    return _preimages(sub.group, cosets, _subspaces(d, p, m))


def maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The maximal subgroups of a p-group P, computed inside the ambient group.

    They contain Phi(P), so each is the preimage of a hyperplane of
    P/Phi(P) = GF(p)^d: the index-p member of `_frattini_family`.
    """
    _, sub = _ambient(X)
    return _frattini_family(sub, 1) if sub.order > 1 else []


@memo
def two_maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The subgroups of index p*p in a p-group P, each built once.

    A subgroup H of index p*p either contains Phi(P) or it does not.

    - If it does, H is the preimage of a codimension-2 subspace of
      P/Phi(P): the index-p*p member of `_frattini_family`.
    - If it does not, H lies in a maximal subgroup M, and M contains
      Phi(P), so H < H*Phi(P) <= M; as |M : H| = p, M = H*Phi(P).  So M
      is the only maximal subgroup that contains H, and H is a maximal
      subgroup of M that does not contain Phi(P): the kernel of a
      functional on M/Phi(M) that does not vanish on the image of Phi(P).
      No such H exists when Phi(P) = 1, and then no M is visited.

    So every member is built once, with no set of seen id-sets.
    """
    G, sub = _ambient(X)
    if sub.order == 1:
        return []
    p, _, cosets = _frattini_cosets(sub)
    out = _frattini_family(sub, 2)
    phi = frozenset(cosets[0])
    if len(phi) > 1:
        for M in _frattini_family(sub, 1):
            _, e, inner = _frattini_cosets(M)
            image = {c for c, ids in enumerate(inner) if ids[0] in phi}
            out += _preimages(G, inner, [z for z in _subspaces(e, p, 1) if not image.issubset(z)])
        out.sort(key=lambda s: s.sorted_ids)
    return out


SUBGROUP_SCAN_BOUND = 256  # the largest order `all_subgroups` scans


@memo
def all_subgroups(X) -> list[Subgroup]:
    """Every subgroup, by adjoining one element at a time.  Exponential, so
    a group past `SUBGROUP_SCAN_BOUND` elements is refused before the scan."""
    G, sub = _ambient(X)
    if sub.order > SUBGROUP_SCAN_BOUND:
        raise LimitExceeded(
            f"subgroup scan over {sub.order} elements exceeds the bound {SUBGROUP_SCAN_BOUND}"
        )
    members = sorted(sub.ids)
    found: dict[frozenset[int], list[int]] = {frozenset((0,)): []}
    frontier = [(frozenset((0,)), [])]
    while frontier:
        nxt = []
        for ids, gens in frontier:
            for x in members:
                if x in ids:
                    continue
                bigger = closure_ids(G, gens + [x], prior=ids)
                if bigger not in found:
                    found[bigger] = gens + [x]
                    nxt.append((bigger, gens + [x]))
        frontier = nxt
    out = [Subgroup(G, ids, gens=gens or None) for ids, gens in found.items()]
    out.sort(key=lambda s: (s.order, s.sorted_ids))
    return out


@memo
def is_quaternion_free(X) -> bool:
    """True if no section H/K of X is an order-8 quaternion group.

    Q8 = <i, j | i^2 j^-2, j^-1 i j i> (i^4 = 1 follows: j commutes with
    j^2 = i^2 and inverts it).  Preimages a, b of i, j in a section
    H/K = Q8 generate a subgroup that maps onto it, and <a, b>/R, with R
    the normal closure of the relators in <a, b>, is always a quotient of
    Q8.  So a section exists exactly when some non-commuting a, b of order
    divisible by 4 give |<a, b> : R| = 8.  An automorphism of Q8 swaps i
    and j, so unordered pairs suffice.
    """
    G, sub = _ambient(X)
    if sub.order % 8 != 0:
        return True
    fours = [x for x in sorted(sub.ids) if G.element_order(x) % 4 == 0]
    for a, b in combinations(fours, 2):
        if G.mul(a, b) == G.mul(b, a):
            continue
        relators = [G.mul(G.mul(a, a), G.inv(G.mul(b, b))), G.mul(G.conj(a, b), a)]
        R = normal_closure(G, relators, by=[a, b])
        if len(closure_ids(G, [a, b])) == 8 * R.order:
            return False
    return True
