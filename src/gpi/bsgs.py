"""Deterministic Schreier-Sims order computation for permutation groups.

Works on raw image tuples so group handles can ask for an order before any
element enumeration happens.  The classic scheme is plenty at desk scale:
orbit plus transversal at each level, Schreier generators for the
stabilizer, descend; the order is the product of the orbit lengths, and no
level is kept once its stabilizer generators are known.  Schreier
generators that turn out to be the identity are discarded before
descending, which keeps the generator sets small.  Given a ceiling, the
descent stops as soon as a lower bound on the order passes it, so a group
far too large to enumerate is refused before its deep levels are built.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter

_MAX_LEVELS = 64


def _first_moved(perm) -> int | None:
    for i, v in enumerate(perm):
        if v != i:
            return i
    return None


def _orbit_transversal(point: int, gens: list[tuple], cap: float = inf) -> dict[int, tuple]:
    """Map each orbit point b to a group word u with u[point] == b; the walk
    stops as soon as it has found more than `cap` points."""
    degree = len(gens[0])
    ident = tuple(range(degree))
    transversal = {point: ident}
    frontier = [point]
    while frontier:
        nxt = []
        for b in frontier:
            u = transversal[b]
            for g in gens:
                c = g[b]
                if c not in transversal:
                    # u * g, applying u first
                    transversal[c] = itemgetter(*u)(g)
                    if len(transversal) > cap:
                        return transversal
                    nxt.append(c)
        frontier = nxt
    return transversal


def group_order(gens, ceiling: float = inf) -> int:
    """Order of the permutation group generated by image tuples: the product
    of the basic orbit lengths down a stabilizer chain.

    The product of the orbit lengths found so far, times the points of the
    orbit being walked, is a lower bound on the order.  Once it passes
    `ceiling` the descent stops and returns that bound, so a result above
    `ceiling` is only a lower bound.
    """
    gens = [g for g in map(tuple, gens) if _first_moved(g) is not None]
    out, levels = 1, 0
    while gens:
        if levels == _MAX_LEVELS:
            raise RuntimeError("stabilizer chain implausibly deep; generators corrupt?")
        levels += 1
        point = min(_first_moved(g) for g in gens)
        transversal = _orbit_transversal(point, gens, ceiling // out)
        out *= len(transversal)
        if out > ceiling:
            return out
        # Schreier generators for the point stabilizer.  u_b * g lands in the
        # coset of u_{b^g}; the quotient is a stabilizer element, trivial
        # exactly when the two words agree.  Words are image tuples, so
        # itemgetter(*u)(g) is u * g.
        inverse = {}
        for c, t in transversal.items():
            t_inv = [0] * len(t)
            for i, v in enumerate(t):
                t_inv[v] = i
            inverse[c] = t_inv
        sub = set()
        for b, u in transversal.items():
            times_u = itemgetter(*u)
            for g in gens:
                w = times_u(g)
                c = g[b]
                if w != transversal[c]:
                    sub.add(itemgetter(*w)(inverse[c]))
        gens = sorted(sub)
    return out
