"""Sylow subgroups and p-group subgroup families against brute enumeration."""

from __future__ import annotations

import signal
import time

import pytest

from gpi import sylow
from gpi.arith import factorize, is_prime, p_part
from gpi.catalog import build_group, from_description, group_names
from gpi.groups import LimitExceeded, Subgroup, TableGroup, closure_ids
from gpi.series import normal_subgroups
from gpi.structure import frattini_subgroup_of_p_subgroup, p_residual
from gpi.sylow import (
    all_subgroups,
    cyclic_subgroups_of_order,
    is_quaternion_free,
    maximal_subgroups_of_p_group,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)

from affine import AFFINE, affine_group
from oracles import (
    brute_all_subgroups,
    brute_derived,
    brute_has_q8_section,
    brute_subgroups_of_order,
    brute_two_group_shape,
    conjugation_first_sylow,
    cyclic_subgroups_by_scan,
    functional_maximal_subgroups,
    functional_two_maximal_subgroups,
    nested_maximal_subgroups,
    nested_two_maximal_subgroups,
    pair_scan_two_minimal_subgroups,
)


def _is_sylow(G, P, p, within=None):
    total = len(within.ids) if within is not None else G.n
    if len(P.ids) != p_part(total, p):
        return False
    if within is not None and not P.ids <= within.ids:
        return False
    return closure_ids(G, P.gens) == P.ids


def test_sylow_orders_across_catalog():
    for name, p in [
        ("S4", 2), ("S4", 3), ("S6", 2), ("S6", 3), ("S6", 5),
        ("A5", 2), ("A5", 5), ("SL(2,3)", 2), ("GL(2,3)", 2),
        ("SL(2,5)", 2), ("SL(2,5)", 3), ("SL(2,5)", 5), ("5^4:3", 5), ("5^4:3", 3),
    ]:
        G = build_group(name)
        P = sylow_subgroup(G, p)
        assert _is_sylow(G, P, p), (name, p)


def test_sylow_shapes():
    sl23 = build_group("SL(2,3)")
    q8 = sylow_subgroup(sl23, 2)
    assert q8.order == 8 and brute_two_group_shape(sl23, q8.ids) == "quaternion"
    s4 = build_group("S4")
    d8 = sylow_subgroup(s4, 2)
    assert brute_two_group_shape(s4, d8.ids) == "dihedral"
    uv = sylow_subgroup(build_group("5^4:3"), 5).as_group()[0]
    assert uv.is_abelian() and {uv.element_order(a) for a in range(uv.n)} == {1, 5}


def test_sylow_within_subgroup():
    G = build_group("S4")
    a4 = p_residual(G, 2)
    assert a4.order == 12
    P = sylow_subgroup(G, 2, within=a4)
    assert _is_sylow(G, P, 2, within=a4)
    assert P.order == 4


@pytest.mark.parametrize("name", group_names())
def test_sylow_within_p_groups_and_the_full_group(name):
    G = build_group(name)
    for E in normal_subgroups(G):
        for p in factorize(G.n):
            P = sylow_subgroup(G, p, within=E)
            if E.is_full:
                assert P is sylow_subgroup(G, p), (name, p)
            elif p_part(E.order, p) == E.order:
                assert P is E, (name, p, E.order)
            else:
                assert _is_sylow(G, P, p, within=E), (name, p, E.order)


def test_sylow_missing_prime_is_trivial():
    G = build_group("S4")
    assert sylow_subgroup(G, 7).is_trivial


def test_sylow_counts_one_mod_p():
    for name, p, expected in [("S4", 2, 3), ("S4", 3, 4), ("A5", 2, 5), ("A5", 5, 6)]:
        G = build_group(name)
        P = sylow_subgroup(G, p)
        orbit = {P.ids}
        frontier = [P.ids]
        while frontier:
            ids = frontier.pop()
            for g in G.generator_ids:
                moved = frozenset(G.conj(a, g) for a in ids)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        assert len(orbit) == expected
        assert len(orbit) % p == 1


def test_cyclic_subgroup_counts():
    S4 = build_group("S4")
    assert len(cyclic_subgroups_of_order(S4, 2)) == 9
    assert len(cyclic_subgroups_of_order(S4, 4)) == 3
    Q8 = build_group("Q8")
    assert len(cyclic_subgroups_of_order(Q8, 4)) == 3
    assert len(cyclic_subgroups_of_order(Q8, 2)) == 1


def test_two_minimal_against_brute():
    for name, p in [("D8", 2), ("Q8", 2), ("D16", 2), ("SD16", 2), ("M16", 2),
                    ("Q16", 2), ("C2^4", 2), ("C4xC2", 2), ("S4", 2), ("C3^2", 3)]:
        G = build_group(name)
        P = sylow_subgroup(G, p)
        got = {H.ids for H in two_minimal_subgroups(P, p)}
        want = brute_subgroups_of_order(P.as_group()[0], p * p)
        back = sorted(P.ids)
        want = {frozenset(back[i] for i in ids) for ids in want}
        assert got == want, name


def test_two_minimal_counts():
    assert len(two_minimal_subgroups(build_group("Q8").full_subgroup(), 2)) == 3
    assert len(two_minimal_subgroups(build_group("C2^4").full_subgroup(), 2)) == 35
    uv = sylow_subgroup(build_group("5^4:3"), 5)
    assert len(two_minimal_subgroups(uv, 5)) == 806


# 3^2:3, the Heisenberg group mod 3: C3 acts on C3^2 (6 points) by
# e1 -> e1, e2 -> e1 + e2.
HEISENBERG_3 = {
    "type": "semidirect",
    "normal": {"type": "perm", "degree": 6, "generators": [[[0, 1, 2]], [[3, 4, 5]]]},
    "quotient": "C3",
    "action": [[[[0, 1, 2]], [[0, 1, 2], [3, 4, 5]]]],
}

# (group, p) pairs: the 2-groups plus odd p, where the walk's mod-p step
# and the functional enumeration go beyond GF(2).
P_GROUPS = [
    *((name, 2) for name in ["D8", "Q8", "D16", "SD16", "M16", "Q16", "C8", "C4xC2",
                             "C2^4", "C2xD8"]),
    ("C3^2", 3), ("C9", 3), ("C5^2", 5), (HEISENBERG_3, 3),
]


def test_maximal_subgroups_against_brute():
    for desc, p in P_GROUPS:
        G = from_description(desc)
        got = {H.ids for H in maximal_subgroups_of_p_group(G.full_subgroup())}
        assert got == brute_subgroups_of_order(G, G.n // p), desc


def test_maximal_subgroup_counts():
    assert len(maximal_subgroups_of_p_group(build_group("D8").full_subgroup())) == 3
    assert len(maximal_subgroups_of_p_group(build_group("C8").full_subgroup())) == 1
    assert len(maximal_subgroups_of_p_group(build_group("C2^4").full_subgroup())) == 15
    uv = sylow_subgroup(build_group("5^4:3"), 5)
    assert len(maximal_subgroups_of_p_group(uv)) == 156


def test_maximal_subgroups_reject_mixed_order():
    G = build_group("S4")
    with pytest.raises(ValueError):
        maximal_subgroups_of_p_group(G.full_subgroup())


# 5^3:5 of order 625, exponent 5 and class 3: C5 acts on C5^3 by the
# unipotent Jordan block e1 -> e1, e2 -> e1 + e2, e3 -> e2 + e3.
CLASS_3_EXPONENT_5 = {
    "type": "semidirect",
    "name": "5^3:5",
    "normal": {"type": "perm", "degree": 15,
               "generators": [[[0, 1, 2, 3, 4]], [[5, 6, 7, 8, 9]], [[10, 11, 12, 13, 14]]]},
    "quotient": "C5",
    "action": [[[[0, 1, 2, 3, 4]], [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]],
                [[5, 6, 7, 8, 9], [10, 11, 12, 13, 14]]]],
}


@pytest.mark.parametrize("handle", ["full", "sylow"])
def test_frattini_and_maximals_ignore_the_generating_list(handle):
    # Phi(P) = P^5 [P, P] = P' here, since P has exponent 5; the commutators
    # of a generating list, closed without conjugating them, give only part
    # of P' in class 3.
    G = from_description(CLASS_3_EXPONENT_5)
    P = G.full_subgroup() if handle == "full" else sylow_subgroup(G, 5)
    assert P.ids == frozenset(range(G.n))
    phi = frattini_subgroup_of_p_subgroup(P, 5)
    assert phi.order == 25
    assert phi.ids == brute_derived(G)
    maxes = maximal_subgroups_of_p_group(P)
    assert len(maxes) == 6
    for M in maxes:
        assert M.index == 5 and phi <= M
        assert closure_ids(G, M.gens) == M.ids


def test_two_maximal_against_brute():
    for desc, p in P_GROUPS:
        G = from_description(desc)
        got = {H.ids for H in two_maximal_subgroups_of_p_group(G.full_subgroup())}
        assert got == brute_subgroups_of_order(G, G.n // (p * p)), desc


def test_two_maximal_counts():
    assert len(two_maximal_subgroups_of_p_group(build_group("Q8").full_subgroup())) == 1
    assert len(two_maximal_subgroups_of_p_group(build_group("D8").full_subgroup())) == 5
    uv = sylow_subgroup(build_group("5^4:3"), 5)
    assert len(two_maximal_subgroups_of_p_group(uv)) == 806


S8 = {"type": "perm", "degree": 8, "generators": [[list(range(8))], [[0, 1]]]}


def _sylow_of(case):
    if case == "S8":
        return sylow_subgroup(from_description(S8), 2)
    if case == "5^3:5":
        return sylow_subgroup(from_description(CLASS_3_EXPONENT_5), 5)
    return sylow_subgroup(build_group(case, fresh=True), 5)


@pytest.mark.parametrize("case", ["S8", "5^3:5"])
def test_families_match_the_nested_construction(case):
    # The Sylow 2-subgroup of S8 (order 128) and 5^3:5, where Phi(P) != 1,
    # so some second maximal subgroups do not contain it; then the same on
    # the first maximal subgroup of each.
    P = _sylow_of(case)
    for X in (P, maximal_subgroups_of_p_group(P)[0]):
        for build, nested in [(maximal_subgroups_of_p_group, nested_maximal_subgroups),
                              (two_maximal_subgroups_of_p_group, nested_two_maximal_subgroups)]:
            got, want = build(X), nested(X)
            assert len({H.ids for H in got}) == len(got), (case, build.__name__)
            assert [H.ids for H in got] == [H.ids for H in want], (case, build.__name__)
            assert [H.gens for H in got] == [H.gens for H in want], (case, build.__name__)


@pytest.mark.parametrize("case", ["5^4:3", "5^3:5", "S8"])
def test_two_maximal_builds_each_member_once(case, monkeypatch):
    # Each member is built once: no kernel is built and then found to
    # repeat an earlier one.  A subgroup of index p*p that misses Phi(P)
    # comes from the maximal subgroups, listed once beforehand.
    P = _sylow_of(case)
    maximal_subgroups_of_p_group(P)
    built = []
    real = sylow.Subgroup

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sylow, "Subgroup", counting)
    got = two_maximal_subgroups_of_p_group(P)
    assert len(built) == len(got)
    assert {H.ids for H in built} == {H.ids for H in got}
    if case == "5^4:3":
        assert len(got) == 806


def _members(subs):
    return [(H.sorted_ids, H.gens) for H in subs]


def _gaussian_binomial(d, k, p):
    """[d k]_p, the number of k-dimensional subspaces of GF(p)^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den if 0 <= k <= d else 0


@pytest.mark.parametrize("name", group_names() + sorted(AFFINE))
def test_families_equal_the_earlier_constructions(name):
    # Same id-sets, list order and generators as the pair scan and the
    # functional filters, on every Sylow subgroup of the catalogue (5^4:3
    # included) and of the affine groups ASL(2,3), AGL(2,3) and AGL(2,5);
    # likewise the cyclic subgroups of every order, and the Sylow subgroups
    # grown within each normal subgroup.
    G = affine_group(name) if name in AFFINE else build_group(name)
    for p in factorize(G.n):
        P = sylow_subgroup(G, p)
        assert _members(two_minimal_subgroups(P, p)) == _members(
            pair_scan_two_minimal_subgroups(P, p)), (name, p)
        assert _members(maximal_subgroups_of_p_group(P)) == _members(
            functional_maximal_subgroups(P)), (name, p)
        assert _members(two_maximal_subgroups_of_p_group(P)) == _members(
            functional_two_maximal_subgroups(P)), (name, p)
        for E in normal_subgroups(G):
            got, want = sylow._grown_sylow(G, p, E), conjugation_first_sylow(G, p, E)
            assert (got.ids, got.gens) == (want.ids, want.gens), (name, p, E.order)
    for k in sorted({G.element_order(a) for a in range(G.n)} | {G.n + 1}):
        assert _members(cyclic_subgroups_of_order(G, k)) == _members(
            cyclic_subgroups_by_scan(G, k)), (name, k)


S7 = {"type": "perm", "degree": 7, "generators": [[list(range(7))], [[0, 1]]]}


def test_cyclic_subgroups_from_one_scan(monkeypatch):
    # Every order is read off one scan of S7: after the first request the
    # others take no product, and each equals its own per-order scan.
    G = from_description(S7)
    orders = sorted({G.element_order(a) for a in range(G.n)})
    assert len(orders) == 9
    want = {k: _members(cyclic_subgroups_by_scan(G, k)) for k in orders}
    assert _members(cyclic_subgroups_of_order(G, orders[-1])) == want[orders[-1]]
    calls = []
    real = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or real(a, b))
    got = {k: _members(cyclic_subgroups_of_order(G, k)) for k in orders}
    assert got == want and not calls
    assert sum(map(len, got.values())) == 2039


# Elementary abelian groups of rank 3, 4 and 5 built from generators.  At
# rank 3 and 5 the 2-minimal family (index p^(d-2)) and the 2-maximal one
# (index p^2) are different families; at rank 4 they are one, the 130
# planes of 3^4.  C2^5 multiplies ids by exclusive or.
RANK_CASES = {
    "C2^3": lambda: from_description(
        {"type": "perm", "degree": 6, "generators": [[[0, 1]], [[2, 3]], [[4, 5]]]}),
    "C3^3": lambda: from_description(
        {"type": "perm", "degree": 9, "generators": [[[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]]]}),
    "C3^4": lambda: from_description(
        {"type": "perm", "degree": 12,
         "generators": [[[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]], [[9, 10, 11]]]}),
    "C2^5": lambda: TableGroup(32, lambda a, b: a ^ b, lambda a: a, gens=[1, 2, 4, 8, 16]),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_elementary_abelian_families_of_rank_3_and_5(case):
    G = RANK_CASES[case]()
    (p, d), = factorize(G.n).items()
    assert G.is_abelian() and {G.element_order(a) for a in range(1, G.n)} == {p}
    P = G.full_subgroup()
    subgroups = brute_all_subgroups(G)
    for got, k in [(two_minimal_subgroups(P, p), 2), (maximal_subgroups_of_p_group(P), d - 1),
                   (two_maximal_subgroups_of_p_group(P), d - 2)]:
        ids = [H.ids for H in got]
        assert set(ids) == {H for H in subgroups if len(H) == p**k}, (case, k)
        assert len(ids) == _gaussian_binomial(d, k, p), (case, k)
        assert ids == sorted(ids, key=sorted), (case, k)
    assert _members(two_minimal_subgroups(P, p)) == _members(pair_scan_two_minimal_subgroups(P, p))
    assert _members(two_maximal_subgroups_of_p_group(P)) == _members(
        functional_two_maximal_subgroups(P))
    if d == 4:
        assert _members(two_minimal_subgroups(P, p)) == _members(
            two_maximal_subgroups_of_p_group(P))
        assert len(two_minimal_subgroups(P, p)) == 130


def test_subspace_enumerator_lists_each_subspace_once():
    # [d m]_p distinct code sets of p^(d-m) distinct codes, each a
    # subspace, for every codimension from 0 (the whole space) to d (the
    # zero subspace).
    for p, top in [(2, 4), (3, 3), (5, 2)]:
        for d in range(top + 1):
            for m in range(d + 1):
                got = list(sylow._subspaces(d, p, m))
                assert len(set(map(frozenset, got))) == len(got) == _gaussian_binomial(d, m, p)
                for codes in got:
                    assert len(set(codes)) == len(codes) == p ** (d - m) and 0 in codes
                    vecs = [[c // p**k % p for k in range(d)] for c in codes]
                    assert all(sum((x + y) % p * p**k for k, (x, y) in enumerate(zip(u, v))) in codes
                               for u in vecs for v in vecs), (p, d, m)
    assert sum(1 for _ in sylow._subspaces(4, 5, 2)) == 806


def test_sylow_families_share_members_and_take_no_products(monkeypatch):
    # On 5^4, Phi = 1: the planes are the codimension-2 family, handed out
    # as the same objects by the 2-minimal and 2-maximal builders, and no
    # family takes a product once the Frattini codes are known.
    G = build_group("5^4:3", fresh=True)
    P = sylow_subgroup(G, 5)
    sylow._frattini_cosets(P)
    calls = []
    real = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or real(a, b))
    planes = two_minimal_subgroups(P, 5)
    maxes = maximal_subgroups_of_p_group(P)
    same = two_maximal_subgroups_of_p_group(P)
    assert not calls
    assert (len(planes), len(maxes)) == (806, 156)
    assert all(a is b for a, b in zip(planes, same, strict=True))


def test_family_edge_cases_keep_their_answers():
    # A trivial P, |P| = p, a P for another prime, and X = G not a p-group.
    S4 = build_group("S4")
    trivial, c3 = sylow_subgroup(S4, 7), sylow_subgroup(S4, 3)
    for P, p in [(trivial, 7), (c3, 3), (c3, 2), (sylow_subgroup(S4, 2), 3)]:
        assert _members(two_minimal_subgroups(P, p)) == _members(
            pair_scan_two_minimal_subgroups(P, p)), (P.order, p)
    for P in [trivial, c3]:
        assert _members(maximal_subgroups_of_p_group(P)) == _members(
            functional_maximal_subgroups(P)), P.order
        assert _members(two_maximal_subgroups_of_p_group(P)) == _members(
            functional_two_maximal_subgroups(P)), P.order
    assert [H.order for H in maximal_subgroups_of_p_group(c3)] == [1]
    for name, p in [("S4", 2), ("A5", 2), ("5^4:3", 5)]:
        G = build_group(name)
        assert _members(two_minimal_subgroups(G, p)) == _members(
            pair_scan_two_minimal_subgroups(G, p)), name


def test_all_subgroups_against_brute():
    for name in ["D8", "Q8", "C12", "S4"]:
        G = build_group(name)
        got = {H.ids for H in all_subgroups(G)}
        assert got == brute_all_subgroups(G), name


def test_all_subgroups_closed_and_bounded():
    G = build_group("5^4:3")
    with pytest.raises(LimitExceeded):
        all_subgroups(G)
    S4 = build_group("S4")
    for H in all_subgroups(S4):
        assert closure_ids(S4, H.gens) == H.ids


def test_quaternion_free():
    expected = {
        "Q8": False,
        "Q16": False,
        "SD16": False,
        "D8": True,
        "D16": True,
        "M16": True,
        "C8": True,
        "C2^4": True,
        "C2xD8": True,
        "C4xC2": True,
    }
    for name, want in expected.items():
        G = build_group(name)
        assert is_quaternion_free(G) is want, name


def test_quaternion_free_whole_group_scan():
    assert is_quaternion_free(build_group("S4")) is True
    assert is_quaternion_free(build_group("SL(2,3)")) is False
    assert is_quaternion_free(build_group("C12")) is True
    P = sylow_subgroup(build_group("GL(2,3)"), 2)
    assert is_quaternion_free(P) is False
    for name in ["S4", "SL(2,3)", "C12"]:
        G = build_group(name)
        assert is_quaternion_free(G) is not brute_has_q8_section(G, range(G.n)), name
    assert brute_has_q8_section(P.group, P.ids)


@pytest.mark.parametrize("name", group_names())
def test_quaternion_free_against_brute_sections(name):
    G = build_group(name)
    P = sylow_subgroup(G, 2)
    assert is_quaternion_free(P) is not brute_has_q8_section(G, P.ids)


# C2^2:C4 of order 16 is quaternion-free, but pairs of its non-commuting
# elements of order 4 span D8 modulo the relator j^-1 i j i alone; the
# relator i^2 j^-2 rules those out.  In C4:C8, with the C8 inverting the
# C4, every element of order 4 lies in the abelian C4 x C4, yet the
# quotient by <b^2 a^2> is Q8: its j lifts only to elements of order 8.
EDGE_TWO_GROUPS = [
    ({"type": "perm", "degree": 8,
      "generators": [[[0, 2, 1, 3], [4, 6, 5, 7]], [[0, 2, 1, 3], [6, 7]]]}, 16, True),
    ({"type": "perm", "degree": 12,
      "generators": [[[0, 1, 2, 3]], [[1, 3], [4, 5, 6, 7, 8, 9, 10, 11]]]}, 32, False),
]


@pytest.mark.parametrize("desc,order,free", EDGE_TWO_GROUPS)
def test_quaternion_free_edge_groups(desc, order, free):
    G = from_description(desc)
    assert G.n == order and not G.is_abelian()
    assert is_quaternion_free(G) is free
    assert brute_has_q8_section(G, range(G.n)) is not free


def test_quaternion_free_on_large_two_groups():
    # The pair test runs on the ambient ids: a Sylow 2-subgroup of order
    # 128 and a dihedral group of order 64, each decided well under 1 s.
    S8 = from_description({"type": "perm", "degree": 8,
                           "generators": [[list(range(8))], [[0, 1]]]})
    P = sylow_subgroup(S8, 2)
    assert P.order == 128
    start = time.perf_counter()
    assert is_quaternion_free(P) is False
    assert time.perf_counter() - start < 1.0
    reflection = [[i, 32 - i] for i in range(1, 16)]
    D64 = from_description({"type": "perm", "degree": 32,
                            "generators": [[list(range(32))], reflection]})
    assert D64.n == 64 and brute_two_group_shape(D64) == "dihedral"
    start = time.perf_counter()
    assert is_quaternion_free(D64) is True
    assert time.perf_counter() - start < 1.0


def test_huge_primes_are_decided_at_once():
    # Primality is Miller-Rabin, not trial division: a prime near 10^18
    # is decided under a one-second alarm, as everything below 10^4 is,
    # in agreement with factorisation.
    def expire(signum, frame):
        raise TimeoutError("deciding primality took over a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert p_part(24, 10**18 + 3) == 1
        assert sylow_subgroup(build_group("S4"), 10**18 + 3).is_trivial
        assert [n for n in range(10**4) if is_prime(n)] == [
            n for n in range(2, 10**4) if factorize(n) == {n: 1}]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # The least composite that passes the bases 2..37 fails base 41; at
    # the least one that passes 2..41 the test refuses to decide.
    assert not is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(ValueError, match="decided only below"):
        p_part(24, 3_317_044_064_679_887_385_961_981)
