"""The chief-series property checker against hand-derived facts and the
all-series brute oracle."""

from __future__ import annotations

import pytest

from gpi import partialpi
from gpi.arith import is_pi_number, prime_set
from gpi.catalog import build_group
from gpi.groups import Subgroup, product_ids, semidirect_product
from gpi.partialpi import (
    FactorCheck,
    PiRefusal,
    PiWitness,
    factor_condition,
    satisfies_partial_pi,
)
from gpi.series import minimal_normal_overgroups
from gpi.structure import centre, p_residual
from gpi.sylow import (
    all_subgroups,
    cyclic_subgroups_of_order,
    maximal_subgroups_of_p_group,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)

from oracles import (
    brute_normal_lattice,
    brute_normalizer,
    brute_partial_pi,
    partial_pi_within,
    vacuous,
    witness_through,
)


def test_factor_condition_shortcut_branches():
    S4 = build_group("S4")
    v4 = sylow_subgroup(S4, 2, within=p_residual(S4, 2))
    a4 = p_residual(S4, 2)
    triv = S4.trivial_subgroup()
    # meet == M: the factor passes with index 1
    fc = factor_condition(S4, v4, triv, v4)
    assert fc.passed and fc.index == 1 and fc.meet_order == 4 and not vacuous(fc)
    # meet == K: vacuous
    tr = cyclic_subgroups_of_order(S4, 2)[0]
    fc = factor_condition(S4, tr, v4, a4)
    assert fc.passed and vacuous(fc) and fc.pi == ()
    # genuine failure: a double transposition line has normalizer index 3
    dt = next(H for H in cyclic_subgroups_of_order(S4, 2) if H.ids <= v4.ids)
    fc = factor_condition(S4, dt, triv, v4)
    assert not fc.passed and fc.index == 3 and fc.pi == (2,)


def _reference_checks(G, population, keep=lambda K, M: True):
    """factor_condition's values at the id level, on the chief pairs (K, M)
    of the brute normal lattice that `keep` admits: the meet as the
    products hk (h in H meet M, k in K), its index as n / |brute
    normalizer|, and index 1 when the meet is itself in the lattice.
    Yields (H, K, M, FactorCheck)."""
    normals = brute_normal_lattice(G)
    pairs = [(K, M) for K in normals for M in normals
             if K < M and not any(K < W < M for W in normals) and keep(K, M)]
    index: dict[frozenset, int] = {}
    for H in population:
        for K, M in pairs:
            meet: set[int] = set()
            for h in H.ids & M:
                if h not in meet:  # else hK is already in
                    meet.update(G.mul(h, k) for k in K)
            meet = frozenset(meet)
            if meet not in index:
                normal = meet in normals
                index[meet] = 1 if normal else G.n // len(brute_normalizer(G, meet))
            pi = prime_set(len(meet) // len(K))
            idx = index[meet]
            want = FactorCheck(len(K), len(M), len(meet), idx, pi, is_pi_number(idx, pi))
            yield H, Subgroup(G, K), Subgroup(G, M), want


def test_factor_condition_matches_id_level_reference():
    S4, C2 = build_group("S4"), build_group("C2")
    s4xc2 = semidirect_product(S4, C2, [S4.generator_ids])  # trivial action
    cases = [(G, all_subgroups(G), lambda K, M: True)
             for G in (build_group("GL(2,3)"), s4xc2)]
    # On 5^4:3, every pair out of 1 and out of the order-625 term, and the
    # pair above one of the 26 order-25 terms: the brute normalizer of each
    # order-125 meet above it scans all of G once per element.
    G = build_group("5^4:3")
    P = sylow_subgroup(G, 5)
    K0 = minimal_normal_overgroups(G, G.trivial_subgroup())[0].ids
    cases.append((G, cyclic_subgroups_of_order(P, 5) + two_minimal_subgroups(P, 5)
                  + [P, sylow_subgroup(G, 3)], lambda K, M: len(K) != 25 or K == K0))
    for G, population, keep in cases:
        deep = 0  # non-shortcut checks above a nontrivial K
        for H, K, M, want in _reference_checks(G, population, keep):
            assert factor_condition(G, H, K, M) == want, (G, H, K.order, M.order)
            deep += not K.is_trivial and want.meet_order not in (want.k_order, want.m_order)
        assert deep > 0, G


def test_a5_klein_four_refused():
    A5 = build_group("A5")
    v4 = sylow_subgroup(A5, 2)
    res = satisfies_partial_pi(A5, v4)
    assert isinstance(res, PiRefusal)
    assert not res.satisfied
    assert res.explored == 1
    state, checks = res.blocked[0]
    assert state.is_trivial
    assert len(checks) == 1
    assert checks[0].index == 5 and checks[0].pi == (2,) and not checks[0].passed


def test_sl25_centre_witnessed():
    G = build_group("SL(2,5)")
    z = centre(G)
    assert z.order == 2
    res = satisfies_partial_pi(G, z)
    assert isinstance(res, PiWitness)
    assert res.satisfied
    assert [t.order for t in res.terms] == [1, 2, 120]
    assert res.checks[0].passed and res.checks[0].meet_order == 2
    assert vacuous(res.checks[1])
    assert res.verify()


def test_sl25_order_four_refused():
    G = build_group("SL(2,5)")
    h = cyclic_subgroups_of_order(G, 4)[0]
    res = satisfies_partial_pi(G, h)
    assert isinstance(res, PiRefusal)
    assert res.explored == 2
    by_order = {state.order: checks for state, checks in res.blocked}
    assert set(by_order) == {1, 2}
    (fc,) = by_order[2]
    assert fc.index == 15 and fc.pi == (2,) and not fc.passed


def test_s4_catalogue_of_verdicts():
    S4 = build_group("S4")
    lines = cyclic_subgroups_of_order(S4, 2)
    verdicts = {H: satisfies_partial_pi(S4, H).satisfied for H in lines}
    v4 = sylow_subgroup(S4, 2, within=p_residual(S4, 2))
    for H, ok in verdicts.items():
        assert ok is (not H.ids <= v4.ids)
    assert sum(verdicts.values()) == 6
    assert satisfies_partial_pi(S4, v4).satisfied
    assert satisfies_partial_pi(S4, sylow_subgroup(S4, 2)).satisfied
    assert satisfies_partial_pi(S4, sylow_subgroup(S4, 3)).satisfied
    assert not satisfies_partial_pi(S4, cyclic_subgroups_of_order(S4, 4)[0]).satisfied


def test_verdicts_match_brute_oracle():
    for name in ["S4", "D8", "SL(2,3)", "C12", "A4"]:
        G = build_group(name)
        for H in all_subgroups(G):
            got = satisfies_partial_pi(G, H).satisfied
            assert got is brute_partial_pi(G, H.ids), (name, sorted(H.ids))


def test_verdict_does_not_depend_on_branch_order(monkeypatch):
    # The search's binding of the chief steps hands them out reversed; on
    # fresh handles, so no verdict is served from the per-group memo.
    names = ["D8", "S4", "SL(2,3)", "C12"]
    plain = {}
    for name in names:
        G = build_group(name)
        plain[name] = [satisfies_partial_pi(G, H) for H in all_subgroups(G)]
    steps = partialpi.minimal_normal_overgroups
    monkeypatch.setattr(partialpi, "minimal_normal_overgroups", lambda G, N: steps(G, N)[::-1])
    moved = 0
    for name in names:
        F = build_group(name, fresh=True)
        for v in plain[name]:
            flipped = satisfies_partial_pi(F, Subgroup(F, v.subgroup.ids))
            assert v.satisfied is flipped.satisfied, (name, sorted(v.subgroup.ids))
            if v.satisfied:
                assert v.verify() and flipped.verify()
                moved += [t.ids for t in v.terms] != [t.ids for t in flipped.terms]
    assert moved > 0  # C12 has two chief steps out of 1


def test_normalizer_orbit_runs_once_per_query(monkeypatch):
    # The index depends on H only through the meet, so on one handle each
    # (K, meet) query runs its orbit once, however many subgroups ask it.
    orbits, asked = [], [0]
    orbit, check = partialpi.normalizer_index, partialpi.factor_condition

    def counted_orbit(G, ids, *, modulus=None):
        orbits.append((modulus, ids))
        return orbit(G, ids, modulus=modulus)

    def counted_check(G, H, K, M):
        fc = check(G, H, K, M)
        asked[0] += fc.meet_order not in (K.order, M.order)
        return fc

    monkeypatch.setattr(partialpi, "normalizer_index", counted_orbit)
    monkeypatch.setattr(partialpi, "factor_condition", counted_check)

    def population(G):
        subs = [H for k in range(2, 7) for H in cyclic_subgroups_of_order(G, k)]
        for p in prime_set(G.n):
            P = sylow_subgroup(G, p)
            subs += [P, *two_minimal_subgroups(P, p), *maximal_subgroups_of_p_group(P),
                     *two_maximal_subgroups_of_p_group(P)]
        return list(dict.fromkeys(subs))  # a Subgroup hashes by its ids

    moduli = set()
    for name in ("GL(2,3)", "S5"):
        orbits.clear()
        asked[0] = 0
        G = build_group(name, fresh=True)
        verdicts = [satisfies_partial_pi(G, H).to_json() for H in population(G)]
        first = set(orbits)
        assert len(orbits) == len(first) < asked[0], name
        moduli |= {modulus for modulus, _ in first}
        orbits.clear()
        F = build_group(name, fresh=True)
        backwards = [satisfies_partial_pi(F, H).to_json() for H in population(F)[::-1]]
        assert backwards[::-1] == verdicts, name
        assert len(orbits) == len(first) and set(orbits) == first, name
    assert None in moduli and len(moduli) > 1  # orbits on ids and on K-cosets


def test_big_group_sample_verdicts():
    G = build_group("5^4:3")
    P = sylow_subgroup(G, 5)
    planes = two_minimal_subgroups(P, 5)
    assert len(planes) == 806
    normal_planes = {N.ids for N in minimal_normal_overgroups(G, G.trivial_subgroup())}
    wit = satisfies_partial_pi(G, next(H for H in planes if H.ids in normal_planes))
    assert wit.satisfied and wit.verify()
    wit = satisfies_partial_pi(G, next(H for H in planes if H.ids not in normal_planes))
    assert wit.satisfied and wit.verify()
    assert [t.order for t in wit.terms] == [1, 25, 625, 1875]
    line = cyclic_subgroups_of_order(P, 5)[0]
    res = satisfies_partial_pi(G, line)
    assert not res.satisfied


def test_refusal_holds_the_handles_the_search_explored():
    # A line of 5^4 is blocked at the trivial term and at each of the 25
    # minimal normal subgroups the search stepped into; the refusal keeps
    # those very handles, with none rebuilt.
    G = build_group("5^4:3", fresh=True)
    line = cyclic_subgroups_of_order(G, 5)[0]
    res = satisfies_partial_pi(G, line)
    assert not res.satisfied and res.explored == 26
    assert [b["at"] for b in res.to_json()["blocked"]] == [1] + [25] * 25
    states = [state for state, _ in res.blocked]
    assert states[0] is G.trivial_subgroup()
    steps = minimal_normal_overgroups(G, G.trivial_subgroup())
    assert all(any(state is N for N in steps) for state in states[1:])


def test_warm_handle_verdicts_match_fresh_ones():
    # One handle decides every line of 5^4 and 100 of its planes, so later
    # verdicts are answered from the checks earlier ones stored; a fresh
    # handle decides them in reverse order and writes the same JSON.
    def population(G):
        P = sylow_subgroup(G, 5)
        return cyclic_subgroups_of_order(P, 5) + two_minimal_subgroups(P, 5)[:100]

    warm, fresh = build_group("5^4:3", fresh=True), build_group("5^4:3", fresh=True)
    subs, again = population(warm), population(fresh)[::-1]
    assert [H.ids for H in subs] == [H.ids for H in again[::-1]]
    hot = [satisfies_partial_pi(warm, H) for H in subs]
    cold = [satisfies_partial_pi(fresh, H) for H in again][::-1]
    assert [v.to_json() for v in hot] == [v.to_json() for v in cold]
    refused = [v for v in hot if not v.satisfied]
    assert len(refused) == 156 and all(not v.satisfied for v in hot[:156])
    for v in refused:
        keys = [(len(state.ids), sorted(state.ids)) for state, _ in v.blocked]
        assert keys == sorted(keys)
    # Equal (K, M, meet) queries share one check: two lines outside a
    # minimal normal N meet it trivially, and two lines in the same
    # 3-space over N meet the step N < P in the same N-cosets.
    G = warm
    triv, lines = G.trivial_subgroup(), subs[:156]
    N = minimal_normal_overgroups(G, triv)[0]
    P = minimal_normal_overgroups(G, N)[0]
    a, b = [L for L in lines if not L.ids <= N.ids][:2]
    assert factor_condition(G, a, triv, N) is factor_condition(G, b, triv, N)
    aN = product_ids(G, a.ids, N.ids)
    c = next(L for L in lines if L.ids <= aN and L.ids != a.ids and not L.ids <= N.ids)
    fc = factor_condition(G, a, N, P)
    assert fc.meet_order == 125 and fc is factor_condition(G, c, N, P)


def test_witness_replay_detects_tampering():
    G = build_group("SL(2,5)")
    wit = satisfies_partial_pi(G, centre(G))
    assert wit.verify()
    forged = PiWitness(G, wit.subgroup, wit.terms, [wit.checks[0]])
    assert not forged.verify()
    wrong = FactorCheck(1, 2, 2, 7, (2,), True)
    forged = PiWitness(G, wit.subgroup, wit.terms, [wrong, wit.checks[1]])
    assert not forged.verify()
    forged = PiWitness(G, wit.subgroup, [wit.terms[0], wit.terms[-1]], wit.checks)
    assert not forged.verify()


def test_json_round_shapes():
    G = build_group("SL(2,5)")
    wit = satisfies_partial_pi(G, centre(G)).to_json()
    assert wit["verdict"] == "witness"
    assert wit["series"] == [1, 2, 120]
    assert all({"k", "m", "meet", "index", "pi", "passed"} <= set(c) for c in wit["checks"])
    ref = satisfies_partial_pi(G, cyclic_subgroups_of_order(G, 4)[0]).to_json()
    assert ref["verdict"] == "refusal"
    assert ref["explored"] == 2
    assert ref["subgroup"]["order"] == 4


def test_verdicts_are_cached():
    G = build_group("S4")
    H = cyclic_subgroups_of_order(G, 2)[0]
    assert satisfies_partial_pi(G, H) is satisfies_partial_pi(G, H)


def test_foreign_subgroup_rejected():
    S4 = build_group("S4")
    D8 = build_group("D8")
    with pytest.raises(ValueError):
        satisfies_partial_pi(S4, D8.full_subgroup())


def test_factor_condition_rejects_a_subgroup_of_another_handle():
    # Two fresh handles of S4 number their elements alike, so a subgroup of
    # one would read as a subgroup of the other; each argument is checked.
    G, other = build_group("S4", fresh=True), build_group("S4", fresh=True)
    triv, a4 = G.trivial_subgroup(), p_residual(G, 2)
    v4 = sylow_subgroup(G, 2, within=a4)
    assert factor_condition(G, a4, triv, v4).passed
    for args in ((other.full_subgroup(), triv, v4),
                 (a4, other.trivial_subgroup(), v4),
                 (a4, triv, sylow_subgroup(other, 2, within=p_residual(other, 2)))):
        with pytest.raises(ValueError, match="different group"):
            factor_condition(G, *args)


def test_within_restricts_the_ambient_group():
    S4 = build_group("S4")
    v4 = sylow_subgroup(S4, 2, within=p_residual(S4, 2))
    dt = next(H for H in cyclic_subgroups_of_order(S4, 2) if H.ids <= v4.ids)
    assert not satisfies_partial_pi(S4, dt).satisfied
    assert partial_pi_within(dt, v4).satisfied
    a4 = p_residual(S4, 2)
    # the line still has normalizer index 3 inside A4, so it fails there too
    assert not partial_pi_within(dt, a4).satisfied


def test_witness_through_a_chosen_term():
    S4 = build_group("S4")
    a4 = p_residual(S4, 2)
    v4 = sylow_subgroup(S4, 2, within=a4)
    wit = witness_through(S4, v4, a4)
    assert wit is not None and wit.verify()
    assert any(t.ids == a4.ids for t in wit.terms)

    G = build_group("5^4:3")
    K = minimal_normal_overgroups(G, G.trivial_subgroup())[0]
    P = sylow_subgroup(G, 5)
    wit = witness_through(G, K, P)
    assert wit is not None and wit.verify()
    assert any(t.ids == P.ids for t in wit.terms)

    A5 = build_group("A5")
    assert witness_through(A5, sylow_subgroup(A5, 2), A5.full_subgroup()) is None
