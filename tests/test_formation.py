"""Central chief factors and formation hypercenters."""

from __future__ import annotations

import pytest

from gpi.catalog import build_group, corpus_names
from gpi.formations import U, Up, Formation, f_hypercenter, is_factor_central
from gpi.groups import LimitExceeded
from gpi.series import (
    is_p_supersoluble,
    is_supersoluble,
    minimal_normal_overgroups,
    normal_subgroups,
)
from gpi.arith import prime_set
from oracles import is_factor_central_literal


def _chief_pairs(G):
    for K in normal_subgroups(G):
        if K.is_full:
            continue
        for M in minimal_normal_overgroups(G, K):
            yield K, M


def test_formation_validation():
    assert U.label == "U"
    assert Up(3).label == "U_3"
    with pytest.raises(ValueError):
        Formation("Up")
    with pytest.raises(ValueError):
        Formation("U", 2)
    with pytest.raises(ValueError):
        Formation("nilpotent")


def test_membership_predicates():
    assert U.contains(build_group("C12"))
    assert U.contains(build_group("D8"))
    assert not U.contains(build_group("S4"))
    assert Up(3).contains(build_group("SL(2,3)"))
    assert not Up(2).contains(build_group("SL(2,3)"))
    assert not Up(5).contains(build_group("5^4:3"))
    assert Up(3).contains(build_group("5^4:3"))


def test_central_matches_literal_construction():
    names = ["S4", "A4", "SL(2,3)", "C12", "D8", "C3^2", "S3"]
    formations = [U, Up(2), Up(3), Up(5)]
    compared = 0
    for name in names:
        G = build_group(name)
        for K, M in _chief_pairs(G):
            for f in formations:
                want = is_factor_central_literal(G, K, M, f)
                assert is_factor_central(G, K, M, f) is want, (name, K.order, M.order, f.label)
                compared += 1
    assert compared >= 100


def test_central_matches_literal_on_big_factors():
    G = build_group("5^4:3")
    triv = G.trivial_subgroup()
    K = minimal_normal_overgroups(G, triv)[0]
    UV = minimal_normal_overgroups(G, K)[0]
    assert UV.order == 625
    for f in [U, Up(5), Up(3)]:
        assert is_factor_central(G, triv, K, f) is is_factor_central_literal(G, triv, K, f)
        assert is_factor_central(G, K, UV, f) is is_factor_central_literal(G, K, UV, f)
    A5 = build_group("A5")
    full = A5.full_subgroup()
    assert is_factor_central(A5, A5.trivial_subgroup(), full, U) is False
    assert is_factor_central_literal(A5, A5.trivial_subgroup(), full, U) is False


def test_literal_guards():
    S4 = build_group("S4")
    from gpi.structure import p_prime_residual

    a4 = p_prime_residual(S4, 3)
    with pytest.raises(ValueError):
        is_factor_central_literal(S4, S4.trivial_subgroup(), a4, U)
    S6 = build_group("S6")
    a6 = minimal_normal_overgroups(S6, S6.trivial_subgroup())[0]
    with pytest.raises(LimitExceeded):
        is_factor_central_literal(S6, S6.trivial_subgroup(), a6, U, bound=5000)


def test_hypercenter_values():
    cases = [
        ("S4", U, 1),
        ("S4", Up(2), 1),
        ("S4", Up(3), 24),
        ("SL(2,3)", U, 2),
        ("SL(2,3)", Up(2), 2),
        ("SL(2,3)", Up(3), 24),
        ("C12", U, 12),
        ("D8", U, 8),
        ("A5", U, 1),
        ("A5", Up(2), 1),
        ("5^4:3", Up(5), 1),
        ("5^4:3", Up(3), 1875),
        ("S6", U, 1),
    ]
    for name, f, order in cases:
        G = build_group(name)
        assert f_hypercenter(G, f).order == order, (name, f.label)


def test_hypercenter_full_iff_member():
    for name in corpus_names():
        G = build_group(name)
        assert f_hypercenter(G, U).is_full is is_supersoluble(G), name
        for p in prime_set(G.n):
            assert f_hypercenter(G, Up(p)).is_full is is_p_supersoluble(G, p), (name, p)


def test_hypercenter_ignores_climb_order():
    for name in ["S4", "D8", "Q8", "SL(2,3)", "C12", "C2^4", "A4", "5^4:3"]:
        G = build_group(name)
        for f in [U, Up(2), Up(3), Up(5)]:
            a = f_hypercenter(G, f)
            b = f_hypercenter(G, f, tie_reverse=True)
            assert a.ids == b.ids, (name, f.label)
