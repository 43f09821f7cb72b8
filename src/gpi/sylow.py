"""Sylow subgroups and the small-index subgroup families of a p-group.

The Sylow subgroup, the subgroup families and the quaternion-section test
are computed on the ambient group's ids, with no subgroup re-rooted and no
quotient group formed.  Maximal subgroups of a p-group come from a Burnside
basis (generators independent modulo the Frattini subgroup); a Q8 section
is found from a pair of its generators' preimages and the relators of Q8.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import mul

from .arith import factorize, p_part
from .groups import FiniteGroup, LimitExceeded, Subgroup, closure_ids, memo
from .structure import element_power, frattini_subgroup_of_p_subgroup, normal_closure


def _ambient(X) -> tuple[FiniteGroup, Subgroup]:
    if isinstance(X, Subgroup):
        return X.group, X
    X.materialize()
    return X, X.full_subgroup()


@memo
def sylow_subgroup(G: FiniteGroup, p: int, within: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup of `within` (default: of G), as a subgroup of G.

    Grown one generator at a time: while P is not yet a full Sylow
    p-subgroup, its normalizer in `within` contains an element whose
    p-part lies outside P, and adjoining that p-part keeps the closure
    a p-group.  The scan is in id order, so the result is deterministic.
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
            if y in cur:
                continue
            if pgens and any(G.conj(m, y) not in cur for m in pgens):
                continue
            o = G.element_order(y)
            op = p_part(o, p)
            if op == 1:
                continue
            y = element_power(G, y, o // op)
            if y in cur:
                continue
            pgens.append(y)
            cur = closure_ids(G, pgens)
            grew = True
            break
        if not grew:
            raise RuntimeError("Sylow growth stalled; the normalizer step is broken")
    return Subgroup(G, cur, gens=pgens)


def cyclic_subgroups_of_order(X, k: int) -> list[Subgroup]:
    """All cyclic subgroups of order k, for X a group or a Subgroup."""
    G, sub = _ambient(X)
    seen: set[frozenset[int]] = set()
    out: list[Subgroup] = []
    for x in sorted(sub.ids):
        if G.element_order(x) != k:
            continue
        ids = frozenset(element_power(G, x, e) for e in range(k))
        if ids in seen:
            continue
        seen.add(ids)
        out.append(Subgroup(G, ids, gens=[x]))
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def two_minimal_subgroups(X, p: int) -> list[Subgroup]:
    """The subgroups of order p*p of X: cyclic ones from elements of
    order p*p, elementary ones from commuting pairs of order-p lines.

    Each elementary plane is built once, from the first pair of its p + 1
    lines; a later pair is skipped when its second line already lies in
    a plane built through the first.  Coverage is kept as line numbers,
    p + 1 per plane.
    """
    G, sub = _ambient(X)
    out = cyclic_subgroups_of_order(sub, p * p)
    lines = cyclic_subgroups_of_order(sub, p)
    line_of = {x: i for i, L in enumerate(lines) for x in L.ids if x}
    covered: list[set[int]] = [set() for _ in lines]  # lines of planes built through each line
    for (i, A), (j, B) in combinations(enumerate(lines), 2):
        a, b = A.gens[0], B.gens[0]
        if j in covered[i] or G.mul(a, b) != G.mul(b, a):
            continue
        ids = frozenset(G.mul(x, y) for x in A.ids for y in B.ids)
        on = {line_of[x] for x in ids if x}
        for k in on:
            covered[k] |= on
        out.append(Subgroup(G, ids, gens=[a, b]))
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The maximal subgroups of a p-group P, computed inside the ambient group.

    Burnside basis theorem: generators independent modulo Phi(P) give
    P/Phi(P) = GF(p)^d coordinates directly, with no quotient group.  A
    basis is picked greedily from P's generators while the walk from Phi's
    ids by right multiplication with it gives every element the coordinate
    vector of its Phi-coset, coord(x*b_i) = coord(x) + e_i mod p.  The
    maximal subgroups are the kernels of the nonzero functionals, one per
    hyperplane (first nonzero entry 1).
    """
    G, sub = _ambient(X)
    fac = factorize(sub.order)
    if len(fac) > 1:
        raise ValueError("maximal-subgroup enumeration expects a p-group")
    if sub.order == 1:
        return []
    (p, _), = fac.items()
    coords: dict[int, tuple[int, ...]] = dict.fromkeys(
        frattini_subgroup_of_p_subgroup(sub, p).ids, ()
    )
    for b in sub.gens:
        if b in coords:
            continue  # b lies in <Phi, basis so far>
        for x, v in list(coords.items()):
            coords[x] = v + (0,)
            y = x
            for c in range(1, p):
                y = G.mul(y, b)
                coords[y] = v + (c,)
    out = []
    for f in product(range(p), repeat=len(coords[0])):
        if next(filter(None, f), 0) != 1:
            continue
        kernel = [x for x, v in coords.items() if sum(map(mul, f, v)) % p == 0]
        out.append(Subgroup(G, kernel))
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def two_maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The subgroups of index p*p in a p-group: maximal subgroups of
    maximal subgroups, deduplicated."""
    sub = _ambient(X)[1]
    seen: set[frozenset[int]] = set()
    out: list[Subgroup] = []
    for M in maximal_subgroups_of_p_group(sub):
        for H in maximal_subgroups_of_p_group(M):
            if H.ids not in seen:
                seen.add(H.ids)
                out.append(H)
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def all_subgroups(X) -> list[Subgroup]:
    """Every subgroup, by adjoining one element at a time.  Exponential;
    guarded by the scan bound in the group's limits."""
    G, sub = _ambient(X)
    if sub.order > G.limits.subgroup_scan_bound:
        raise LimitExceeded(
            f"subgroup scan over {sub.order} elements exceeds the bound "
            f"{G.limits.subgroup_scan_bound}"
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
                bigger = closure_ids(G, gens + [x])
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
