"""Independent brute-force references used to pin the fast implementations.

Everything here favours obviousness over speed: full scans, no caching, no
shortcuts.  Tests freeze values produced by these routines (or run them live
on small groups) and compare the package's real algorithms against them.
"""

from __future__ import annotations

from gpi.groups import FiniteGroup, Subgroup, TableGroup


def brute_closure(G: FiniteGroup, seeds) -> frozenset:
    """Close under pairwise products until stable."""
    els = set(seeds) | {0}
    new = set(els)
    while new:
        if 2 * len(els) > G.n:
            # Lagrange: a subgroup bigger than half the group is the group.
            return frozenset(range(G.n))
        fresh = set()
        for a in els:
            for b in new:
                fresh.add(G.mul(a, b))
                fresh.add(G.mul(b, a))
        new = fresh - els
        els |= new
    return frozenset(els)


def brute_all_subgroups(G: FiniteGroup, max_order: int | None = None) -> set[frozenset]:
    """Every subgroup, found by repeatedly adjoining single elements."""
    n = G.n
    if n > 200:
        raise ValueError("exhaustive subgroup search is an oracle for small groups only")
    found = {frozenset((0,))}
    frontier = [frozenset((0,))]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(1, n):
                if g in H:
                    continue
                K = brute_closure(G, H | {g})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    if max_order is not None:
        found = {H for H in found if len(H) <= max_order}
    return found


def brute_conjugacy_classes(G: FiniteGroup) -> list[frozenset]:
    """Conjugacy classes by conjugating every element with every element."""
    left = set(range(G.n))
    out = []
    while left:
        a = min(left)
        cls = frozenset(G.conj(a, g) for g in range(G.n))
        out.append(cls)
        left -= cls
    return out


def brute_is_normal(G: FiniteGroup, ids: frozenset) -> bool:
    return all(G.conj(a, g) in ids for g in range(G.n) for a in ids)


def brute_normalizer(G: FiniteGroup, ids: frozenset) -> frozenset:
    out = set()
    for g in range(G.n):
        if {G.conj(a, g) for a in ids} == set(ids):
            out.add(g)
    return frozenset(out)


def brute_centralizer(G: FiniteGroup, ids) -> frozenset:
    return frozenset(g for g in range(G.n) if all(G.mul(g, a) == G.mul(a, g) for a in ids))


def brute_center(G: FiniteGroup) -> frozenset:
    return brute_centralizer(G, range(G.n))


def brute_normal_subgroups(G: FiniteGroup) -> set[frozenset]:
    """Normal subgroups are the class-closed subsets that multiply into themselves.

    Enumerates unions of conjugacy classes containing the identity, filters by
    Lagrange, and keeps the ones closed under the product.
    """
    classes = [c for c in brute_conjugacy_classes(G) if 0 not in c]
    out = set()
    for mask in range(1 << len(classes)):
        ids = {0}
        for i, c in enumerate(classes):
            if mask >> i & 1:
                ids |= c
        if G.n % len(ids):
            continue
        if all(G.mul(a, b) in ids for a in ids for b in ids):
            out.add(frozenset(ids))
    return out


def brute_subgroups_of_order(G: FiniteGroup, k: int) -> set[frozenset]:
    return {H for H in brute_all_subgroups(G) if len(H) == k}


def brute_normal_lattice(G: FiniteGroup) -> set[frozenset]:
    """Normal subgroups as joins of single-class closures.

    Every normal subgroup is the join of the normal closures of its
    conjugacy classes, so closing the class closures under products
    (products of normal subgroups are subgroups) finds them all without
    the power-set scan of `brute_normal_subgroups`.
    """
    full = frozenset(range(G.n))
    base = set()
    for cls in brute_conjugacy_classes(G):
        base.add(brute_closure(G, cls))
    lattice = {frozenset((0,))} | base
    frontier = list(base)
    while frontier:
        fresh = []
        for A in frontier:
            for B in base:
                if B <= A:
                    continue
                if A == full or B == full:
                    join = full
                else:
                    join = frozenset(G.mul(a, b) for a in A for b in B)
                if join not in lattice:
                    lattice.add(join)
                    fresh.append(join)
        frontier = fresh
    return lattice


def brute_core(G: FiniteGroup, pred) -> frozenset:
    """Largest normal subgroup whose order satisfies `pred`, by direct scan."""
    best = frozenset((0,))
    for H in brute_normal_subgroups(G):
        if pred(len(H)) and len(H) > len(best):
            best = H
    return best


def subgroup_of(G: FiniteGroup, ids) -> Subgroup:
    return Subgroup(G, ids, check=True)


def brute_chief_chains(G: FiniteGroup, normals=None) -> list[list[frozenset]]:
    """Every maximal chain of the normal-subgroup poset, i.e. every chief
    series, as lists of id-sets."""
    if normals is None:
        normals = brute_normal_subgroups(G)
    normals = sorted(normals, key=lambda s: (len(s), sorted(s)))
    chains: list[list[frozenset]] = []

    def walk(chain: list[frozenset]) -> None:
        cur = chain[-1]
        if len(cur) == G.n:
            chains.append(list(chain))
            return
        ups = [M for M in normals if cur < M]
        for M in ups:
            if any(cur < W < M for W in ups):
                continue
            walk(chain + [M])

    walk([frozenset((0,))])
    return chains


def brute_quotient(G: FiniteGroup, n_ids) -> tuple[TableGroup, list[int]]:
    """G/N over coset representatives: cosets found by scanning G in id
    order, products taken through the representatives.  Also returns each
    element's coset number, which is its image's id in the quotient."""
    coset = [-1] * G.n
    reps: list[int] = []
    for g in range(G.n):
        if coset[g] < 0:
            for m in n_ids:
                coset[G.mul(g, m)] = len(reps)
            reps.append(g)

    def rep(g: int) -> int:
        return reps[coset[g]]

    Q = TableGroup(
        reps,
        lambda a, b: rep(G.mul(a, b)),
        lambda a: rep(G.inv(a)),
        gens=[rep(g) for g in G.generator_ids],
        label_fn=G.label,
    )
    return Q, coset


def brute_partial_pi(G: FiniteGroup, h_ids, chains=None, qcache=None) -> bool:
    """Try every chief series; evaluate each factor in the materialised
    quotient with full normalizer scans.

    `chains` and `qcache` let a sweep over many subgroups of one group
    share the series enumeration and the quotient constructions.
    """
    from gpi.arith import is_pi_number, prime_set

    h_ids = frozenset(h_ids)
    if chains is None:
        chains = brute_chief_chains(G)
    if qcache is None:
        qcache = {}
    memo: dict[tuple[frozenset, frozenset], bool] = {}

    def factor_ok(k_ids: frozenset, m_ids: frozenset) -> bool:
        key = (k_ids, m_ids)
        if key in memo:
            return memo[key]
        if len(k_ids) == 1:
            Q, him, mim = G, h_ids, m_ids
        else:
            if k_ids not in qcache:
                qcache[k_ids] = brute_quotient(G, k_ids)
            Q, pr = qcache[k_ids]
            him = frozenset(pr[h] for h in h_ids)
            mim = frozenset(pr[m] for m in m_ids)
        meet = him & mim
        if len(meet) == 1:
            memo[key] = True
            return True
        idx = Q.n // len(brute_normalizer(Q, meet))
        memo[key] = is_pi_number(idx, prime_set(len(meet)))
        return memo[key]

    def passes(chain: list[frozenset]) -> bool:
        return all(factor_ok(k, m) for k, m in zip(chain, chain[1:]))

    return any(passes(chain) for chain in chains)

def brute_p_length(G: FiniteGroup, p: int) -> int:
    """Count the p-steps of the alternating upper p-series, peeling the
    largest normal p'- or p-subgroup off the top quotient each round."""

    def p_power(k: int) -> bool:
        while k % p == 0:
            k //= p
        return k == 1

    cur = G
    length = 0
    while cur.n > 1:
        opp = brute_core(cur, lambda k: k % p != 0)
        if len(opp) > 1:
            cur = brute_quotient(cur, opp)[0]
            continue
        op = brute_core(cur, p_power)
        if len(op) > 1:
            length += 1
            cur = brute_quotient(cur, op)[0]
            continue
        raise ValueError("upper p-series stalls; the group is not p-soluble")
    return length


def brute_hypercenter(G: FiniteGroup) -> frozenset:
    """Climb centres of quotients until they go trivial."""
    ids = frozenset((0,))
    while len(ids) < G.n:
        Q, pr = brute_quotient(G, ids)
        zc = brute_center(Q)
        if len(zc) == 1:
            break
        ids = frozenset(g for g in range(G.n) if pr[g] in zc)
    return ids


def brute_is_nilpotent_set(G: FiniteGroup, ids) -> bool:
    """Lower central series inside the subgroup on `ids`, by commutators."""
    ids = frozenset(ids)
    cur = ids
    while True:
        nxt = brute_closure(G, {G.commutator(a, b) for a in cur for b in ids})
        if len(nxt) == 1:
            return True
        if nxt == cur:
            return False
        cur = nxt


def brute_fitting(G: FiniteGroup) -> frozenset:
    """Largest normal nilpotent subgroup by direct scan."""
    best = frozenset((0,))
    for N in brute_normal_subgroups(G):
        if len(N) > len(best) and brute_is_nilpotent_set(G, N):
            best = N
    return best


def brute_socle(G: FiniteGroup) -> frozenset:
    """Product of all minimal nontrivial normal subgroups."""
    normals = [N for N in brute_normal_subgroups(G) if len(N) > 1]
    minimal = [N for N in normals if not any(M < N for M in normals)]
    seed = set((0,)).union(*minimal) if minimal else {0}
    return brute_closure(G, seed)


def is_factor_central_literal(
    G: FiniteGroup, K: Subgroup, M: Subgroup, f, bound: int = 5000
) -> bool:
    """The definition verbatim: build (M/K) acted on by G/C_G(M/K) and
    test membership in the formation f.  Pins `is_factor_central`."""
    from gpi.groups import LimitExceeded, semidirect_product
    from gpi.series import minimal_normal_overgroups
    from gpi.structure import factor_centralizer

    if M not in minimal_normal_overgroups(G, K):
        raise ValueError("the pair is not a chief factor")
    C = factor_centralizer(G, M, K)
    if K.is_trivial:
        V, vmap = M.as_group()
        back = sorted(M.ids)

        def to_v(a: int) -> int:
            return vmap[a]

        def to_ambient(i: int) -> int:
            return back[i]

    else:
        Q1, pr1 = brute_quotient(G, K.ids)
        vsub = Subgroup(Q1, {pr1[m] for m in M.ids})
        V, vmap = vsub.as_group()
        back = sorted(vsub.ids)

        def to_v(a: int) -> int:
            return vmap[pr1[a]]

        def to_ambient(i: int) -> int:
            return pr1.index(back[i])

    if C.is_full:
        return f.contains(V)
    size = V.n * (G.n // C.order)
    if size > bound:
        raise LimitExceeded(f"literal centrality product has order {size} > {bound}")
    Q2, pr2 = brute_quotient(G, C.ids)
    vgens_ambient = [to_ambient(i) for i in V.generator_ids]
    rows = []
    for w in Q2.generator_ids:
        g_inv = G.inv(pr2.index(w))
        rows.append([to_v(G.conj(a, g_inv)) for a in vgens_ambient])
    S = semidirect_product(V, Q2, rows, name=f"({M.order}/{K.order}):{Q2.n}")
    return f.contains(S)
