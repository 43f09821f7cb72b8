"""Independent brute-force references used to pin the fast implementations.

Everything here favours obviousness over speed: full scans, no caching, no
shortcuts.  Tests freeze values produced by these routines (or run them live
on small groups) and compare the package's real algorithms against them.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import mul

from gpi.arith import factorize, p_part
from gpi.groups import FiniteGroup, Subgroup, TableGroup, closure_ids
from gpi.series import _join_normal, principal_normal_closures
from gpi.structure import element_power, frattini_subgroup_of_p_subgroup, normal_closure
from gpi.sylow import _frattini_cosets


def hom_defect(G: FiniteGroup, phi, target_mul) -> tuple[int, int] | None:
    """First (element, generator) pair violating phi(e*g) == phi(e)*phi(g), if any."""
    for e in range(G.n):
        pe = phi[e]
        for g in G.generator_ids:
            if phi[G.mul(e, g)] != target_mul(pe, phi[g]):
                return (e, g)
    return None


def vacuous(check) -> bool:
    """Whether a factor check's meet is K itself, so that it passes with an
    empty pi."""
    return check.meet_order == check.k_order


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
    """Every subgroup, found by repeatedly adjoining single elements.  From
    H, one element per right coset H*g is adjoined: <H, hg> = <H, g> for h
    in H."""
    n = G.n
    if n > 200:
        raise ValueError("exhaustive subgroup search is an oracle for small groups only")
    found = {frozenset((0,))}
    frontier = [frozenset((0,))]
    while frontier:
        nxt = []
        for H in frontier:
            tried = set(H)
            for g in range(1, n):
                if g in tried:
                    continue
                tried.update(G.mul(h, g) for h in H)
                K = brute_closure(G, H | {g})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    if max_order is not None:
        found = {H for H in found if len(H) <= max_order}
    return found


def brute_conjugacy_classes(G: FiniteGroup) -> list[frozenset]:
    """Conjugacy classes as orbits under conjugation by the generators
    (every element is a product of generators), in order of least member."""
    left = set(range(G.n))
    out = []
    while left:
        a = min(left)
        cls = {a}
        todo = [a]
        for x in todo:  # grows while it is walked
            for g in G.generator_ids:
                y = G.conj(x, g)
                if y not in cls:
                    cls.add(y)
                    todo.append(y)
        out.append(frozenset(cls))
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


def brute_span(G: FiniteGroup, seeds) -> frozenset:
    """The subgroup generated by the seeds: a breadth-first walk from the
    identity by right multiplication with the seeds kept so far, redone
    each time a seed outside the current span is kept.  Near linear in
    the result, where `brute_closure` (the reference for `closure_ids`)
    is quadratic."""
    kept: list[int] = []
    span = frozenset((0,))
    for s in seeds:
        if s in span:
            continue
        kept.append(s)
        els = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in kept:
                    b = G.mul(a, g)
                    if b not in els:
                        els.add(b)
                        nxt.append(b)
            frontier = nxt
        span = frozenset(els)
    return span


def nested_maximal_subgroups(sub: Subgroup) -> list[Subgroup]:
    """The maximal subgroups of a p-group, as kernels of the functionals on
    the Burnside-basis coordinates, one dot product per element and
    functional: the package's earlier construction, kept as a reference."""
    G = sub.group
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


def nested_two_maximal_subgroups(sub: Subgroup) -> list[Subgroup]:
    """The subgroups of index p*p in a p-group: maximal subgroups of
    maximal subgroups, deduplicated (the package's earlier construction)."""
    seen: set[frozenset[int]] = set()
    out: list[Subgroup] = []
    for M in nested_maximal_subgroups(sub):
        for H in nested_maximal_subgroups(M):
            if H.ids not in seen:
                seen.add(H.ids)
                out.append(H)
    out.sort(key=lambda s: s.sorted_ids)
    return out


def _ambient(X) -> tuple[FiniteGroup, Subgroup]:
    if isinstance(X, FiniteGroup):
        return X, X.full_subgroup()
    return X.group, X


def cyclic_subgroups_by_scan(X, k: int) -> list[Subgroup]:
    """The cyclic subgroups of order k: one scan of X in id order for this
    k alone, each new subgroup listed by the powers of its first element
    (the package's earlier construction, kept as a reference)."""
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


def conjugation_first_sylow(G: FiniteGroup, p: int, within: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup of `within` (default G) grown as `gpi.sylow` grows
    it, but testing each candidate's conjugation of the generators so far
    before its order (the package's earlier order of tests)."""
    within = within or G.full_subgroup()
    target = p_part(within.order, p)
    pgens: list[int] = []
    cur = frozenset((0,))
    while len(cur) < target:
        for y in sorted(within.ids):
            if y in cur or any(G.conj(m, y) not in cur for m in pgens):
                continue
            o = G.element_order(y)
            op = p_part(o, p)
            if op == 1:
                continue
            y = element_power(G, y, o // op)
            if y not in cur:
                pgens.append(y)
                cur = closure_ids(G, pgens, prior=cur)
                break
    return Subgroup(G, cur, gens=pgens)


def pair_scan_two_minimal_subgroups(X, p: int) -> list[Subgroup]:
    """The subgroups of order p*p: cyclic ones, and each elementary plane
    filled in from the first commuting pair of its lines by the products
    of their elements (the package's earlier construction)."""
    G, sub = _ambient(X)
    out = cyclic_subgroups_by_scan(sub, p * p)
    lines = cyclic_subgroups_by_scan(sub, p)
    gens = [L.gens[0] for L in lines]
    rest = [[x for x in L.ids if x] for L in lines]
    line_of = {x: i for i, xs in enumerate(rest) for x in xs}
    covered: list[set[int]] = [set() for _ in lines]
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


def _zeros(f, p: int) -> frozenset[int]:
    """The codes sum v_k p^k of the v in GF(p)^len(f) with f.v = 0 mod p,
    from all p^len(f) values of f."""
    vals = [0]
    for fk in f:
        vals = [(x + fk * c) % p for c in range(p) for x in vals]
    return frozenset(c for c, v in enumerate(vals) if not v)


def _hyperplanes(d: int, p: int):
    for f in product(range(p), repeat=d):
        if next(filter(None, f), 0) == 1:
            yield _zeros(f, p)


def _codes_preimage(G: FiniteGroup, cosets, codes) -> Subgroup:
    return Subgroup(G, [x for c in codes for x in cosets[c]])


def functional_maximal_subgroups(X) -> list[Subgroup]:
    """The maximal subgroups of a p-group from the Frattini codes of
    `gpi.sylow._frattini_cosets`, each the zeros of one functional found
    among its values on all p^d codes (the package's earlier construction)."""
    G, sub = _ambient(X)
    if sub.order == 1:
        return []
    p, d, cosets = _frattini_cosets(sub)
    out = [_codes_preimage(G, cosets, zeros) for zeros in _hyperplanes(d, p)]
    out.sort(key=lambda s: s.sorted_ids)
    return out


def functional_two_maximal_subgroups(X) -> list[Subgroup]:
    """The subgroups of index p*p of a p-group: those containing Phi(P)
    from nested pivot loops over pairs of functionals, the others as
    maximal subgroups of the one maximal subgroup above each (the
    package's earlier construction)."""
    G, sub = _ambient(X)
    if sub.order == 1:
        return []
    p, d, cosets = _frattini_cosets(sub)
    out = []
    for i, j in combinations(range(d), 2):
        for a in product(range(p), repeat=d - i - 2):
            f = (0,) * i + (1,) + a[: j - i - 1] + (0,) + a[j - i - 1:]
            for b in product(range(p), repeat=d - j - 1):
                g = (0,) * j + (1,) + b
                out.append(_codes_preimage(G, cosets, _zeros(f, p) & _zeros(g, p)))
    phi = frozenset(cosets[0])
    if len(phi) > 1:
        for M in functional_maximal_subgroups(sub):
            _, e, inner = _frattini_cosets(M)
            image = {c for c, ids in enumerate(inner) if ids[0] in phi}
            out += [_codes_preimage(G, inner, z) for z in _hyperplanes(e, p) if not image <= z]
    out.sort(key=lambda s: s.sorted_ids)
    return out


def brute_derived(G: FiniteGroup) -> frozenset:
    """G' as the span of the commutators [a, g], a in G and g a generator.

    That span L is normal, since [a, g]^x = [ax, g][x, g]^-1, and every
    generator is central in G/L, so G/L is abelian and L = G'.  It costs
    |G| commutators per generator instead of |G|^2.
    """
    return brute_span(G, (G.commutator(a, g) for a in range(G.n) for g in G.generator_ids))


def brute_normal_lattice(G: FiniteGroup) -> set[frozenset]:
    """Normal subgroups as joins of single-class closures.

    Every normal subgroup is the join of the normal closures of its
    conjugacy classes, so closing the class closures under joins finds
    them all without the power-set scan of `brute_normal_subgroups`.
    Classes, closures and joins are walked from the generators, so the
    cost stays near linear in the group order.
    """
    base = {brute_span(G, cls) for cls in brute_conjugacy_classes(G)}
    lattice = {frozenset((0,))} | base
    frontier = list(base)
    while frontier:
        fresh = []
        for A in frontier:
            for B in base:
                if B <= A:
                    continue
                join = brute_span(G, A | B)
                if join not in lattice:
                    lattice.add(join)
                    fresh.append(join)
        frontier = fresh
    return lattice


def join_all_minimal_normal_overgroups(G: FiniteGroup, N: Subgroup) -> list[Subgroup]:
    """Normal subgroups M > N with nothing normal strictly between.

    Every normal overgroup of N contains the closure of one of its elements,
    so the inclusion-minimal joins N v P over principal closures P are exactly
    the chief steps out of N.  Every join is built as a product set: the
    package's earlier construction, kept as a reference.
    """
    cand: dict[frozenset, Subgroup] = {}
    for P in principal_normal_closures(G):
        if P.ids <= N.ids:
            continue
        J = _join_normal(G, N, P)
        cand.setdefault(J.ids, J)
    out: list[Subgroup] = []
    for J in sorted(cand.values(), key=lambda S: (S.order, S.sorted_ids)):
        if not any(R.ids <= J.ids for R in out):
            out.append(J)
    return out


def principal_normal_closures_from_scratch(G: FiniteGroup) -> list[Subgroup]:
    """Normal closures of single elements, one per conjugacy class, deduped:
    the package's earlier construction, which grows each class
    representative's closure from the trivial subgroup, kept as a reference."""
    seen: dict[frozenset, Subgroup] = {}
    for rep in G.conjugacy_class_reps():
        if rep == 0:
            continue
        P = normal_closure(G, [rep], by=G.reduced_generator_ids())
        seen.setdefault(P.ids, P)
    return sorted(seen.values(), key=lambda S: (S.order, S.sorted_ids))


def brute_core(G: FiniteGroup, pred) -> frozenset:
    """Largest normal subgroup whose order satisfies `pred`, by direct scan."""
    best = frozenset((0,))
    for H in brute_normal_subgroups(G):
        if pred(len(H)) and len(H) > len(best):
            best = H
    return best


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


def partial_pi_within(H: Subgroup, N: Subgroup):
    """The engine's verdict for H inside the intermediate group N, decided
    on N re-rooted as a group of its own."""
    from gpi.partialpi import satisfies_partial_pi

    sub, to_new = N.as_group()
    return satisfies_partial_pi(sub, Subgroup(sub, [to_new[a] for a in H.ids]))


def witness_through(G: FiniteGroup, H: Subgroup, N: Subgroup, chains=None):
    """A chief series of G with N as a term on which every factor passes
    the engine's `factor_condition`, as a `PiWitness`, or None.  The series
    are the brute chief chains of `brute_normal_lattice(G)`; a sweep over
    one group passes them in as `chains`."""
    from gpi.partialpi import PiWitness, factor_condition

    if chains is None:
        chains = brute_chief_chains(G, brute_normal_lattice(G))
    for chain in chains:
        if N.ids in chain:
            terms = [Subgroup(G, ids) for ids in chain]
            checks = [factor_condition(G, H, K, M) for K, M in zip(terms, terms[1:])]
            if all(c.passed for c in checks):
                return PiWitness(G, H, terms, checks)
    return None


def left_cosets_by_scan(G: FiniteGroup, right) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left cosets g*right of a subgroup's id-set, numbered by a scan of
    G in id order: each id not yet labelled starts a coset, labelled by
    |right| products.  Returns (labels, reps) as `G.left_cosets` does."""
    labels = [-1] * G.n
    reps: list[int] = []
    for g in range(G.n):
        if labels[g] < 0:
            for m in right:
                labels[G.mul(g, m)] = len(reps)
            reps.append(g)
    return tuple(labels), tuple(reps)


def generator_tables_by_products(G: FiniteGroup):
    """The right, translation and conjugation tables of G, one per reduced
    generator g, taken product by product: x -> x g, x -> g^-1 x and
    x -> g^-1 x g over all ids."""
    gens = G.reduced_generator_ids()
    ids = range(G.n)
    right = tuple(tuple(G.mul(x, g) for x in ids) for g in gens)
    translation = tuple(tuple(G.mul(G.inv(g), x) for x in ids) for g in gens)
    conjugation = tuple(tuple(G.mul(G.mul(G.inv(g), x), g) for x in ids) for g in gens)
    return right, translation, conjugation


def brute_quotient(G: FiniteGroup, n_ids) -> tuple[TableGroup, tuple[int, ...]]:
    """G/N over coset representatives: cosets found by scanning G in id
    order, products taken through the representatives.  Also returns each
    element's coset number, which is its image's id in the quotient."""
    coset, reps = left_cosets_by_scan(G, n_ids)

    Q = TableGroup(
        len(reps),
        lambda a, b: coset[G.mul(reps[a], reps[b])],
        lambda a: coset[G.inv(reps[a])],
        gens=[coset[g] for g in G.generator_ids],
        label_fn=lambda a: G.label(reps[a]),
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


def _rerooted(G: FiniteGroup, ids) -> TableGroup:
    """The subgroup on `ids` as a group, its ids numbering `ids` in sorted
    order; every element is a generator."""
    dom = sorted(ids)
    to = {x: i for i, x in enumerate(dom)}
    return TableGroup(len(dom), lambda a, b: to[G.mul(dom[a], dom[b])],
                      lambda a: to[G.inv(dom[a])])


def brute_has_q8_section(G: FiniteGroup, ids) -> bool:
    """Some section H/K of the subgroup on `ids` is an order-8 quaternion
    group.  Every subgroup H of order divisible by 8 is re-rooted on its
    ids; each normal K of index 8 in it gives a quotient, which is Q8 when
    it is non-abelian with one involution."""
    X = _rerooted(G, ids)
    for h_ids in brute_all_subgroups(X):
        if len(h_ids) % 8:
            continue
        H = _rerooted(X, h_ids)
        for k_ids in brute_all_subgroups(H):
            if 8 * len(k_ids) != H.n or not brute_is_normal(H, k_ids):
                continue
            Q = brute_quotient(H, k_ids)[0]
            els = range(Q.n)
            nonabelian = any(Q.mul(a, b) != Q.mul(b, a) for a in els for b in els)
            involutions = sum(1 for a in els if a and Q.mul(a, a) == 0)
            if Q.n == 8 and nonabelian and involutions == 1:
                return True
    return False


def brute_order_histogram(G: FiniteGroup, ids=None) -> dict[int, int]:
    """How many elements of G (or of the subset `ids`) have each order,
    by repeated multiplication."""
    hist: dict[int, int] = {}
    for a in range(G.n) if ids is None else ids:
        k, x = 1, a
        while x != 0:
            x = G.mul(x, a)
            k += 1
        hist[k] = hist.get(k, 0) + 1
    return dict(sorted(hist.items()))


def brute_two_group_shape(G: FiniteGroup, ids=None) -> str | None:
    """The shape of a non-abelian group of order 2^n >= 8 with an element
    of order 2^(n-1), the whole of G or the subgroup on `ids`:
    "dihedral", "semidihedral", "quaternion" (generalized) or "modular".
    These are the non-abelian 2-groups with a cyclic maximal subgroup, and
    their numbers of involutions tell them apart.  None for any other group."""
    els = list(range(G.n) if ids is None else ids)
    n = len(els)
    if n < 8 or n & (n - 1) or all(G.mul(a, b) == G.mul(b, a) for a in els for b in els):
        return None
    hist = brute_order_histogram(G, els)
    if not hist.get(n // 2):
        return None
    shapes = {n // 2 + 1: "dihedral", 1: "quaternion"}
    if n >= 16:
        shapes.update({n // 4 + 1: "semidihedral", 3: "modular"})
    return shapes[hist.get(2, 0)]


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


def brute_p_hypercyclic_hypercenter(G: FiniteGroup, p: int, normals=None) -> frozenset:
    """The largest normal N reached from 1 by a covering chain of the
    normal lattice whose every step has order prime to p or equal to p.

    Walks the lattice in order of size, so each N is tried against every
    member below it that was already reached.  Also checks that the
    largest one contains every other, as the p-hypercyclic hypercentre
    must.
    """
    if normals is None:
        normals = brute_normal_lattice(G)
    normals = sorted(normals, key=len)
    reached = [normals[0]]
    for N in normals[1:]:
        for M in reached:
            if not M < N or any(M < W < N for W in normals):
                continue
            v = len(N) // len(M)
            if v % p or v == p:
                reached.append(N)
                break
    top = max(reached, key=len)
    assert all(N <= top for N in reached), "reached subgroups have no largest member"
    return top


def brute_is_p_supersoluble(G: FiniteGroup, p: int) -> bool:
    """Every chief factor of order divisible by p has order p.

    Chief factor orders do not depend on the series (Jordan-Hoelder), so
    one chain decides it: from each term, step to the smallest normal
    subgroup above it in the brute normal lattice, which nothing normal
    lies strictly between.
    """
    normals = sorted(brute_normal_lattice(G), key=len)
    cur = normals[0]
    while len(cur) < G.n:
        nxt = next(N for N in normals if cur < N)
        v = len(nxt) // len(cur)
        if v % p == 0 and v != p:
            return False
        cur = nxt
    return True


def brute_factor_centralizer(G: FiniteGroup, L: Subgroup, K: Subgroup) -> frozenset:
    """C_G(L/K) by a scan of G: the g whose commutator with each generator
    of L falls into K.  K must be normal in G and contained in L; then g
    acts on L/K as an automorphism, so generators of L suffice."""
    if not K.ids <= L.ids:
        raise ValueError("K must be contained in L")
    kids, lgens = K.ids, L.gens
    return frozenset(
        g for g in range(G.n) if all(G.commutator(g, m) in kids for m in lgens)
    )


def is_factor_central_literal(
    G: FiniteGroup, K: Subgroup, M: Subgroup, p: int, bound: int = 5000, normals=None
) -> bool:
    """Doerk-Hawkes U_p-centrality verbatim: build (M/K) acted on by
    G/C_G(M/K) and test whether it is p-supersoluble.  The chief-pair
    guard and p-supersolubility are read off brute normal lattices;
    `normals`, G's lattice, lets several calls on one group share it."""
    from gpi.groups import LimitExceeded, semidirect_product

    if normals is None:
        normals = brute_normal_lattice(G)
    k_ids, m_ids = K.ids, M.ids
    if (k_ids not in normals or m_ids not in normals or not k_ids < m_ids
            or any(k_ids < W < m_ids for W in normals)):
        raise ValueError("the pair is not a chief factor")
    C = brute_factor_centralizer(G, M, K)
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

    if len(C) == G.n:
        return brute_is_p_supersoluble(V, p)
    size = V.n * (G.n // len(C))
    if size > bound:
        raise LimitExceeded(f"literal centrality product has order {size} > {bound}")
    Q2, pr2 = brute_quotient(G, C)
    vgens_ambient = [to_ambient(i) for i in V.generator_ids]
    rows = []
    for w in Q2.generator_ids:
        g_inv = G.inv(pr2.index(w))
        rows.append([to_v(G.conj(a, g_inv)) for a in vgens_ambient])
    S = semidirect_product(V, Q2, rows, name=f"({M.order}/{K.order}):{Q2.n}")
    return brute_is_p_supersoluble(S, p)
