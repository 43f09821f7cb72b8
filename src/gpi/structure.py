"""Pointwise structural operators: normalizer indices, centralizers, closures, residuals.

Everything lattice-shaped (normal subgroup enumeration, chief series, cores,
socle) lives in `series`; this module stays at the level of single subgroups
and element scans, but for two readings: the centre is read off the class
table and the p-residual off the normal lattice.
"""

from __future__ import annotations

import functools
from collections import Counter
from operator import itemgetter

from .arith import factorize, p_part
from .groups import FiniteGroup, Subgroup, closure_ids


def normalizer_index(G: FiniteGroup, ids: frozenset, *, modulus: frozenset | None = None) -> int:
    """|G : N_G(H)| as the size of the conjugation orbit of H's id-set `ids`.

    With `modulus` the id-set of a normal subgroup K <= H, `ids` are instead
    the numbers of the K-cosets that make up H (as `G.left_cosets(modulus)`
    numbers them), and the orbit runs on those through
    `G.coset_conjugation_tables(modulus)`.  Since g^-1 (xK) g = (g^-1 x g)K,
    that orbit is in bijection with the orbit of H's id-set, and its size
    is |G/K : N_{G/K}(H/K)| = |G : N_G(H)|.

    This is the hot path of the factor checks: no normalizer is materialised,
    and each orbit point costs one `itemgetter` over its members, applied
    to each table, so every image is gathered by one C call.  An orbit
    point of one member is gathered with that member asked twice, since
    `itemgetter` of a single index returns the entry rather than a tuple.
    """
    if modulus is None:
        tables = G.conjugation_tables()
    else:
        tables = G.coset_conjugation_tables(modulus)
    gatherer = itemgetter if len(ids) > 1 else lambda x: itemgetter(x, x)
    seen = {ids}
    orbit = [ids]
    for S in orbit:  # grows while it is walked
        gather = gatherer(*S)
        for t in tables:
            T = frozenset(gather(t))
            if T not in seen:
                seen.add(T)
                orbit.append(T)
    return len(orbit)


def centralizer(G: FiniteGroup, elems) -> Subgroup:
    if isinstance(elems, Subgroup):
        elems = elems.gens
    elems = list(elems)
    return Subgroup(
        G, (g for g in range(G.n) if all(G.mul(g, a) == G.mul(a, g) for a in elems))
    )


def centre(G: FiniteGroup) -> Subgroup:
    """Z(G): the ids alone in their conjugacy class, read off `G.class_labels()`."""
    labels = G.class_labels()
    sizes = Counter(labels)
    return Subgroup(G, (x for x, c in enumerate(labels) if sizes[c] == 1))


def normal_closure(G: FiniteGroup, seed_ids, by) -> Subgroup:
    """Smallest subgroup containing the seeds and closed under conjugation
    by the elements of `by`.

    With `by` the generators of a subgroup K that contains the seeds, the
    result is the normal closure of the seeds in K.  Seeds, then the
    conjugates of each adjoined generator, are adjoined one at a time and
    only when they lie outside the current closure, which each one then
    extends by cosets of the closure so far.
    """
    conjugates = [functools.partial(G.conj, g=g) for g in by]
    hgens: list[int] = []
    H = frozenset((0,))
    todo = list(seed_ids)
    for x in todo:  # grows while it is walked
        if x not in H:
            hgens.append(x)
            H = closure_ids(G, hgens, prior=H)
            todo.extend(f(x) for f in conjugates)
    return Subgroup(G, H, gens=hgens)


def p_residual(G: FiniteGroup, p: int) -> Subgroup:
    """O^p(G), the smallest normal subgroup of p-power index: the first
    member of the order-sorted normal lattice whose index is a power of p
    (every normal subgroup of p-power index contains O^p(G))."""
    from .series import normal_subgroups  # series imports this module

    if p not in factorize(G.n):
        raise ValueError(f"{p} does not divide the group order {G.n}")
    return next(N for N in normal_subgroups(G) if p_part(N.index, p) == N.index)


def frattini_subgroup_of_p_subgroup(sub: Subgroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-subgroup P, as a subgroup of the same ambient group.

    By the Burnside basis theorem Phi(P) = P^p [P, P], which is the normal
    closure in P of the p-th powers of any generating list and of the
    commutators of its pairs; so the answer does not depend on which
    generators `sub` carries.
    """
    if factorize(sub.order).keys() - {p}:
        raise ValueError(f"subgroup of order {sub.order} is not a {p}-group")
    G, gens = sub.group, sub.gens
    seeds = [element_power(G, g, p) for g in gens]
    seeds += [G.commutator(a, b) for a in gens for b in gens]
    return normal_closure(G, seeds, by=gens)


def element_power(G: FiniteGroup, a: int, k: int) -> int:
    """a**k on ids, with negative powers via the inverse."""
    if k < 0:
        return element_power(G, G.inv(a), -k)
    out, base = 0, a
    while k:
        if k & 1:
            out = G.mul(out, base)
        base = G.mul(base, base)
        k >>= 1
    return out
