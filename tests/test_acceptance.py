"""Release checklist, one test per criterion.

Each test drives the engine end to end on concrete groups and compares
against values derived independently: brute-force oracles, closed-form
counts, or hand-checked structure.  Timed criteria carry their wall-clock
ceiling in the final assert.
"""

import itertools
import time

from gpi import (
    PermGroup,
    THEOREM_IDS,
    build_group,
    corpus_names,
    cyclic_subgroups_of_order,
    fitting_subgroup,
    frattini_subgroup_of_p_subgroup,
    group_names,
    hypercenter,
    is_p_soluble,
    is_p_supersoluble,
    is_pi_number,
    p_length,
    prime_set,
    run_corpus,
    satisfies_partial_pi,
    socle,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)
from oracles import (
    brute_all_subgroups,
    brute_chief_chains,
    brute_derived,
    brute_fitting,
    brute_hypercenter,
    brute_normal_lattice,
    brute_normal_subgroups,
    brute_p_length,
    brute_partial_pi,
    brute_socle,
    brute_subgroups_of_order,
    brute_two_group_shape,
)
# Aliased so pytest does not collect the imported suites a second time.
from test_lemmas import test_intermediate_subgroup_lemma as run_intermediate_suite
from test_lemmas import test_quotient_lemma as run_quotient_suite
from test_lemmas import test_through_series_lemma as run_series_suite

# Planes in a 4-dimensional space over F5: (5^4-1)(5^3-1)/((5^2-1)(5-1)).
ORDER_25_COUNT = 806


def _cycle_ids(G, g):
    ids = {0}
    x = g
    while x != 0:
        ids.add(x)
        x = G.mul(x, g)
    return frozenset(ids)


def test_criterion_1_soluble_1875_witnesses():
    t0 = time.perf_counter()
    G = build_group("5^4:3")
    assert G.n == 1875

    # Independent count of the order-25 subgroups: the Sylow 5-subgroup is
    # normal and elementary abelian, so each one is the product set of two
    # distinct order-5 cyclic lines.
    lines = sorted(
        {_cycle_ids(G, g) for g in range(1, G.n) if len(_cycle_ids(G, g)) == 5},
        key=sorted,
    )
    planes = set()
    for A, B in itertools.combinations(lines, 2):
        prod = frozenset(G.mul(a, b) for a in A for b in B)
        if len(prod) == 25:
            planes.add(prod)
    assert len(planes) == ORDER_25_COUNT

    subs = two_minimal_subgroups(G, 5)
    assert {frozenset(S.ids) for S in subs} == planes
    for S in subs:
        v = satisfies_partial_pi(G, S)
        assert v.satisfied
        assert [t.order for t in v.terms] == [1, 25, 625, 1875]
        assert all(is_pi_number(c.index, (5,)) for c in v.checks)
        assert v.verify()

    assert not is_p_supersoluble(G, 5)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_simple_group_refusal():
    t0 = time.perf_counter()
    G = build_group("A5")
    P = sylow_subgroup(G, 2)
    v = satisfies_partial_pi(G, P)
    assert not v.satisfied
    # A5 is simple: a single chief factor, so a single blocked state.
    assert v.explored == 1
    ((state, checks),) = v.blocked
    assert state.order == 1
    (check,) = checks
    assert check.m_order == 60 and check.meet_order == 4
    assert check.index == 5 and check.pi == (2,) and not check.passed
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_double_cover_of_a5():
    t0 = time.perf_counter()
    G = build_group("SL(2,5)")
    involutions = [g for g in range(G.n) if G.element_order(g) == 2]
    assert len(involutions) == 1
    Z = G.generated(involutions)
    v = satisfies_partial_pi(G, Z)
    assert v.satisfied and v.verify()
    assert [t.order for t in v.terms] == [1, 2, 120]

    P = sylow_subgroup(G, 2)
    assert P.order == 8 and brute_two_group_shape(G, P.ids) == "quaternion"
    quarts = cyclic_subgroups_of_order(P, 4)
    assert len(quarts) == 3
    for C in quarts:
        r = satisfies_partial_pi(G, C)
        assert not r.satisfied
        bad = [c for _, checks in r.blocked for c in checks if not c.passed]
        assert bad
        assert all(c.k_order == 2 and c.m_order == 120 and c.index == 15 for c in bad)

    # The order-4 augmentation is load-bearing: the index-4 family of the
    # quaternion Sylow satisfies the property although G is not 2-soluble.
    assert all(
        satisfies_partial_pi(G, S).satisfied
        for S in two_maximal_subgroups_of_p_group(P)
    )
    assert not is_p_soluble(G, 2)
    from gpi import verify_theorem

    rep = verify_theorem("t14", G, primes=[2])
    (d,) = rep.details
    assert d["family"] == 4 and d["hypothesis"] is False and d["conclusion"] is None
    assert rep.ok
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_corpus_sweep():
    t0 = time.perf_counter()
    reports = run_corpus()
    by_group: dict[str, list[str]] = {}
    for r in reports:
        by_group.setdefault(r.group, []).append(r.theorem)
    assert len(by_group) >= 15
    for name, tids in by_group.items():
        assert tids == list(THEOREM_IDS), name
    assert all(r.ok for r in reports)
    assert sum(len(r.violations) for r in reports) == 0
    assert not any("skipped" in d for r in reports for d in r.details)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_5a_order_against_generator_walk():
    for name in corpus_names():
        G = build_group(name)
        if isinstance(G, PermGroup):
            # Walk raw image tuples; no engine arithmetic involved.
            gens = [tuple(G.perm(g).images) for g in G.generator_ids]
            seen = {tuple(range(G.degree))}
            frontier = list(seen)
            while frontier:
                nxt = []
                for a in frontier:
                    for g in gens:
                        b = tuple(g[x] for x in a)
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            assert G.order() == len(seen) == G.n, name
        else:
            # Table backends: the declared generators must reach every id.
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in G.generator_ids:
                        b = G.mul(a, g)
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            assert len(seen) == G.n == G.order(), name


def test_criterion_5b_layer_families_against_brute_scan():
    checked = 0
    for name in corpus_names():
        G = build_group(name)
        ps = prime_set(G.n)
        if len(ps) != 1 or G.n > 128:
            continue
        p = ps[0]
        mins = {frozenset(S.ids) for S in two_minimal_subgroups(G, p)}
        assert mins == brute_subgroups_of_order(G, p * p), name
        maxes = {frozenset(S.ids) for S in two_maximal_subgroups_of_p_group(G)}
        assert maxes == brute_subgroups_of_order(G, G.n // (p * p)), name
        checked += 1
    assert checked >= 5


def _verdict_population(G):
    """Subgroups to cross-check: everything when feasible, otherwise the
    cyclic subgroups, the Sylow subgroups, and (for the big soluble group)
    every order-25 subgroup."""
    if G.n <= 200:
        return brute_all_subgroups(G)
    pop = {_cycle_ids(G, g) for g in range(G.n)}
    for p in prime_set(G.n):
        pop.add(frozenset(sylow_subgroup(G, p).ids))
    if G.n == 1875:
        pop |= {frozenset(S.ids) for S in two_minimal_subgroups(G, 5)}
    return pop


def test_criterion_5c_verdicts_against_series_oracle():
    totals = {}
    for name in corpus_names():
        G = build_group(name)
        if G.n <= 200:
            chains = brute_chief_chains(G)
        else:
            chains = brute_chief_chains(G, normals=brute_normal_lattice(G))
        qcache: dict = {}
        pkg_refused = oracle_refused = 0
        for ids in sorted(_verdict_population(G), key=lambda s: (len(s), sorted(s))):
            pkg = satisfies_partial_pi(G, G.generated(ids)).satisfied
            oracle = brute_partial_pi(G, ids, chains=chains, qcache=qcache)
            assert pkg == oracle, (name, sorted(ids)[:8])
            pkg_refused += not pkg
            oracle_refused += not oracle
        assert pkg_refused == oracle_refused, name
        totals[name] = pkg_refused
    # The sweep must actually exercise refusals, not just witnesses.
    assert sum(totals.values()) > 0
    assert len(totals) >= 15


def test_criterion_6_metamorphic_lemma_suites():
    # Each suite asserts at least 100 applicable cases and no counterexample.
    run_quotient_suite()
    run_intermediate_suite()
    run_series_suite()


def test_criterion_7_structure_invariants():
    S4 = build_group("S4")
    SL23 = build_group("SL(2,3)")

    assert p_length(S4, 2) == brute_p_length(S4, 2) == 2
    assert p_length(SL23, 2) == brute_p_length(SL23, 2) == 1

    Z = hypercenter(SL23)
    assert frozenset(Z.ids) == brute_hypercenter(SL23)
    assert Z.order == 2

    F = fitting_subgroup(S4)
    assert frozenset(F.ids) == brute_fitting(S4)
    assert F.order == 4
    assert all(S4.element_order(g) <= 2 for g in F.ids)

    S = socle(S4)
    assert frozenset(S.ids) == brute_socle(S4)
    assert S.ids == F.ids


def test_criterion_8_unique_index_four_normal():
    unique_names = []
    plural_names = []
    for name in group_names():
        G = build_group(name)
        if prime_set(G.n) != (2,) or G.n > 64 or G.is_abelian():
            continue
        normals = brute_normal_subgroups(G)
        index_four = [N for N in normals if len(N) * 4 == G.n]
        special = brute_two_group_shape(G) in ("dihedral", "semidihedral", "quaternion")
        assert (len(index_four) == 1) == special, name
        if not special:
            plural_names.append(name)
            continue
        unique_names.append(name)

        # The unique witness is the derived subgroup, which coincides with
        # the Frattini subgroup at index four.
        D = brute_derived(G)
        Phi = frattini_subgroup_of_p_subgroup(G.full_subgroup(), 2)
        assert D == Phi.ids and len(D) * 4 == G.n
        assert index_four == [D]

        # Below the maximal layer the normal subgroups thin out to exactly
        # one per order, and each is cyclic.
        o = 2
        while o < G.n // 2:
            layer = [N for N in normals if len(N) == o]
            assert len(layer) == 1, (name, o)
            (N,) = layer
            assert any(_cycle_ids(G, g) == N for g in N)
            o *= 2

    assert len(unique_names) >= 5
    assert plural_names

    # The non-abelian hypothesis is essential: C8 also has exactly one
    # index-four subgroup but none of the three shapes.
    C8 = build_group("C8")
    idx4 = [N for N in brute_normal_subgroups(C8) if len(N) == 2]
    assert len(idx4) == 1
    assert brute_two_group_shape(C8) is None
