"""Sylow subgroups and the small-index subgroup families of a p-group."""

from __future__ import annotations

from itertools import combinations

from .arith import factorize, p_part
from .groups import (
    FiniteGroup,
    LimitExceeded,
    Subgroup,
    closure_ids,
    memo,
    quotient,
    recognize_small,
)
from .series import normal_subgroups
from .structure import element_power, frattini_subgroup_of_p_subgroup


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
    """
    G, sub = _ambient(X)
    seen: set[frozenset[int]] = set()
    out: list[Subgroup] = []
    for H in cyclic_subgroups_of_order(sub, p * p):
        if H.ids not in seen:
            seen.add(H.ids)
            out.append(H)
    lines = cyclic_subgroups_of_order(sub, p)
    for A, B in combinations(lines, 2):
        a, b = A.gens[0], B.gens[0]
        if G.mul(a, b) != G.mul(b, a):
            continue
        ids = frozenset(G.mul(x, y) for x in A.ids for y in B.ids)
        if len(ids) != p * p or ids in seen:
            continue
        seen.add(ids)
        out.append(Subgroup(G, ids, gens=[a, b]))
    out.sort(key=lambda s: s.sorted_ids)
    return out


def _elementary_coordinates(Q: FiniteGroup, p: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """A basis of an elementary abelian p-group and coordinates for all
    elements, as exponent vectors over GF(p)."""
    basis: list[int] = []
    coords: dict[int, tuple[int, ...]] = {0: ()}
    for x in range(Q.n):
        if x in coords:
            continue
        if Q.element_order(x) != p:
            raise ValueError("coordinates need an elementary abelian group")
        basis.append(x)
        frontier = dict(coords)
        for e, vec in frontier.items():
            y = e
            for c in range(1, p):
                y = Q.mul(y, x)
                coords[y] = vec + (c,)
        for e in frontier:
            coords[e] = coords[e] + (0,)
    full = [coords[e] for e in range(Q.n)]
    return basis, full


def _functionals(d: int, p: int):
    """Nonzero vectors of GF(p)^d with first nonzero entry 1: one
    representative per hyperplane."""
    if d == 0:
        return
    vec = [0] * d
    for lead in range(d):
        vec[lead] = 1
        tail = d - lead - 1
        count = p**tail
        for m in range(count):
            rest = []
            mm = m
            for _ in range(tail):
                rest.append(mm % p)
                mm //= p
            yield tuple(vec[: lead + 1]) + tuple(rest)
        vec[lead] = 0


@memo
def maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The maximal subgroups of a p-group: preimages of the hyperplanes
    of its Frattini quotient."""
    G, sub = _ambient(X)
    fac = factorize(sub.order)
    if len(fac) > 1:
        raise ValueError("maximal-subgroup enumeration expects a p-group")
    if sub.order == 1:
        return []
    (p, _), = fac.items()
    if sub.order == p:
        return [Subgroup(G, (0,))]
    phi = frattini_subgroup_of_p_subgroup(sub, p)
    P2, to_new = sub.as_group()
    back = sorted(sub.ids)
    if phi.is_trivial:
        Q = P2
        lift = None
    else:
        phi2 = Subgroup(P2, frozenset(to_new[a] for a in phi.ids))
        Q, lift = quotient(P2, phi2)
    _, coords = _elementary_coordinates(Q, p)
    d = len(coords[1]) if Q.n > 1 else 0
    out = []
    for f in _functionals(d, p):
        kernel = [e for e in range(Q.n) if sum(a * b for a, b in zip(f, coords[e])) % p == 0]
        if lift is None:
            inner = kernel
        else:
            inner = lift.preimage(Subgroup(Q, kernel)).ids
        out.append(Subgroup(G, frozenset(back[i] for i in inner)))
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
    """True if no section H/K of X is an order-8 quaternion group."""
    sub = _ambient(X)[1]
    if sub.order % 8 != 0:
        return True
    for H in all_subgroups(sub):
        if H.order % 8 != 0:
            continue
        H2, _ = H.as_group()
        for K in normal_subgroups(H2):
            if H2.n // K.order != 8:
                continue
            Q = H2 if K.is_trivial else quotient(H2, K)[0]
            if recognize_small(Q).is_q8:
                return False
    return True
