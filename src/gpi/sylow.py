"""Sylow subgroups and the small-index subgroup families of a p-group.

The Sylow subgroup, the subgroup families and the quaternion-section test
are computed on the ambient group's ids, with no subgroup re-rooted and no
quotient group formed.

The maximal and second maximal subgroups of a p-group P are built from
Frattini-coset codes.  A Burnside basis (generators independent modulo
Phi(P)) gives each x in P its coordinates v in P/Phi(P) = GF(p)^d, stored
as the integer code sum v_k p^k, and P's ids are grouped by code once.  A
subgroup that contains Phi(P) is then a union of those cosets, picked out
by the zero codes of one or two functionals.  A subgroup of index p*p that
does not contain Phi(P) lies in exactly one maximal subgroup M, namely
H*Phi(P), and is found there from M's own codes.  Every member is built
once.  A Q8 section is found from a pair of its generators' preimages and
the relators of Q8.
"""

from __future__ import annotations

from itertools import combinations, product

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
            cur = closure_ids(G, pgens, prior=cur)
            grew = True
            break
        if not grew:
            raise RuntimeError("Sylow growth stalled; the normalizer step is broken")
    return Subgroup(G, cur, gens=pgens)


def cyclic_subgroups_of_order(X, k: int) -> list[Subgroup]:
    """All cyclic subgroups of order k, for X a group or a Subgroup, each
    generated by its least id.

    The scan is in id order; an element of order k that lies in a subgroup
    found earlier generates that subgroup, so it is skipped, and each new
    subgroup is listed by successive powers of its first element.
    """
    G, sub = _ambient(X)
    found: set[int] = set()
    out: list[Subgroup] = []
    for x in sorted(sub.ids):
        if x in found or G.element_order(x) != k:
            continue
        ids = [0, x]
        y = G.mul(x, x)
        while y:
            ids.append(y)
            y = G.mul(y, x)
        found.update(ids)
        out.append(Subgroup(G, ids, gens=[x]))
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def two_minimal_subgroups(X, p: int) -> list[Subgroup]:
    """The subgroups of order p*p of X: cyclic ones from elements of
    order p*p, elementary ones from commuting pairs of order-p lines.

    Each elementary plane is built once, from the first pair A, B of its
    p + 1 lines, as A, B and the (p - 1)^2 products xy with x in A and y
    in B both nontrivial; a later pair is skipped when its second line
    already lies in a plane built through the first.  Coverage is kept as
    line numbers, p + 1 per plane.
    """
    G, sub = _ambient(X)
    out = cyclic_subgroups_of_order(sub, p * p)
    lines = cyclic_subgroups_of_order(sub, p)
    gens = [L.gens[0] for L in lines]
    rest = [[x for x in L.ids if x] for L in lines]  # each line without 1
    line_of = {x: i for i, xs in enumerate(rest) for x in xs}
    covered: list[set[int]] = [set() for _ in lines]  # lines of planes built through each line
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


def _zeros(f, p: int) -> frozenset[int]:
    """The codes of the v in GF(p)^len(f) with f.v = 0 mod p.

    The values come from a digit recurrence: the codes below p^(k+1) are
    those below p^k with digit k set to 0, then 1, ..., then p - 1.
    """
    vals = [0]
    for fk in f:
        vals = [(x + fk * c) % p for c in range(p) for x in vals]
    return frozenset(c for c, v in enumerate(vals) if not v)


def _hyperplanes(d: int, p: int):
    """The zero codes of one nonzero functional on GF(p)^d per hyperplane
    (its first nonzero entry 1)."""
    for f in product(range(p), repeat=d):
        if next(filter(None, f), 0) == 1:
            yield _zeros(f, p)


def _preimage(G: FiniteGroup, cosets, codes) -> Subgroup:
    return Subgroup(G, [x for c in codes for x in cosets[c]])


@memo
def maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The maximal subgroups of a p-group P, computed inside the ambient group.

    They contain Phi(P), so each is the preimage of a hyperplane of
    P/Phi(P) = GF(p)^d: the kernel of a nonzero functional f.  P's ids are
    grouped once by the code of their Phi-coset (`_frattini_cosets`), f's
    values on all p^d codes come from a digit recurrence (`_zeros`), and
    the kernel is the union of the cosets f sends to 0: no product and no
    dot product per element.
    """
    G, sub = _ambient(X)
    if sub.order == 1:
        return []
    p, d, cosets = _frattini_cosets(sub)
    out = [_preimage(G, cosets, zeros) for zeros in _hyperplanes(d, p)]
    out.sort(key=lambda s: s.sorted_ids)
    return out


@memo
def two_maximal_subgroups_of_p_group(X) -> list[Subgroup]:
    """The subgroups of index p*p in a p-group P, each built once.

    A subgroup H of index p*p either contains Phi(P) or it does not.

    - If it does, H is the preimage of a codimension-2 subspace of
      P/Phi(P), the common kernel of the two rows of a matrix in reduced
      row echelon form: pivots i < j, the first row 0 before i, 1 at i
      and 0 at j, the second row 0 up to j and 1 at j, free elsewhere.
      Each subspace has one such matrix, so there are [d 2]_p of them.
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
    p, d, cosets = _frattini_cosets(sub)
    zeros = {}  # row -> its zero codes; a row recurs across pairs
    out = []
    for i, j in combinations(range(d), 2):
        for a in product(range(p), repeat=d - i - 2):
            f = (0,) * i + (1,) + a[: j - i - 1] + (0,) + a[j - i - 1:]
            if f not in zeros:
                zeros[f] = _zeros(f, p)
            for b in product(range(p), repeat=d - j - 1):
                g = (0,) * j + (1,) + b
                if g not in zeros:
                    zeros[g] = _zeros(g, p)
                out.append(_preimage(G, cosets, zeros[f] & zeros[g]))
    phi = frozenset(cosets[0])
    if len(phi) > 1:
        for M in maximal_subgroups_of_p_group(sub):
            _, e, inner = _frattini_cosets(M)
            image = {c for c, ids in enumerate(inner) if ids[0] in phi}
            out += [_preimage(G, inner, z) for z in _hyperplanes(e, p) if not image <= z]
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
