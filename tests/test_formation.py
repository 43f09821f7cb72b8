"""The p-hypercyclic U_p-hypercentre and the Doerk-Hawkes reading it replaces."""

from __future__ import annotations

import pytest

from gpi.arith import prime_set
from gpi.catalog import build_group, corpus_names
from gpi.formations import f_hypercenter
from gpi.groups import LimitExceeded
from gpi.series import (
    is_p_supersoluble,
    is_supersoluble,
    minimal_normal_overgroups,
    normal_subgroups,
)
from affine import AFFINE, affine_group
from oracles import (
    brute_normal_lattice,
    brute_p_hypercyclic_hypercenter,
    is_factor_central_literal,
)


def _chief_pairs(G):
    for K in normal_subgroups(G):
        if K.is_full:
            continue
        for M in minimal_normal_overgroups(G, K):
            yield K, M


def test_membership_predicates():
    assert is_supersoluble(build_group("C12"))
    assert is_supersoluble(build_group("D8"))
    assert not is_supersoluble(build_group("S4"))
    assert is_p_supersoluble(build_group("SL(2,3)"), 3)
    assert not is_p_supersoluble(build_group("SL(2,3)"), 2)
    assert not is_p_supersoluble(build_group("5^4:3"), 5)
    assert is_p_supersoluble(build_group("5^4:3"), 3)


def test_central_matches_literal_construction():
    # On a factor of order divisible by p the two readings agree: central
    # exactly when the order is p.  The climb reads p'-factors as central.
    names = ["S4", "A4", "SL(2,3)", "C12", "D8", "C3^2", "S3"]
    compared = 0
    for name in names:
        G = build_group(name)
        for K, M in _chief_pairs(G):
            v = M.order // K.order
            for p in (2, 3, 5):
                if v % p == 0:
                    want = v == p
                    assert is_factor_central_literal(G, K, M, p) is want, (name, K.order, M.order, p)
                    compared += 1
    assert compared >= 30


def test_central_matches_literal_on_big_factors():
    G = build_group("5^4:3")
    normals = brute_normal_lattice(G)
    triv = G.trivial_subgroup()
    K = minimal_normal_overgroups(G, triv)[0]
    UV = minimal_normal_overgroups(G, K)[0]
    assert UV.order == 625
    assert is_factor_central_literal(G, triv, K, 5, normals=normals) is False
    assert is_factor_central_literal(G, K, UV, 5, normals=normals) is False
    # Order-25 factors are 3'-factors acted on by C3: central either way.
    assert is_factor_central_literal(G, triv, K, 3, normals=normals) is True
    assert is_factor_central_literal(G, K, UV, 3, normals=normals) is True
    A5 = build_group("A5")
    assert is_factor_central_literal(A5, A5.trivial_subgroup(), A5.full_subgroup(), 2) is False
    assert f_hypercenter(A5, 2).is_trivial


def test_literal_guards():
    S4 = build_group("S4")
    from gpi.structure import p_residual

    a4 = p_residual(S4, 2)
    with pytest.raises(ValueError):
        is_factor_central_literal(S4, S4.trivial_subgroup(), a4, 2)
    S6 = build_group("S6")
    a6 = minimal_normal_overgroups(S6, S6.trivial_subgroup())[0]
    with pytest.raises(LimitExceeded):
        is_factor_central_literal(S6, S6.trivial_subgroup(), a6, 2, bound=5000)


def test_hypercenter_values():
    cases = [
        ("S4", 2, 1),
        ("S4", 3, 24),
        ("SL(2,3)", 2, 2),
        ("SL(2,3)", 3, 24),
        ("A5", 2, 1),
        ("5^4:3", 5, 1),
        ("5^4:3", 3, 1875),
    ]
    for name, p, order in cases:
        G = build_group(name)
        assert f_hypercenter(G, p).order == order, (name, p)
    # 3^2:<-I> and 5^2:<scalars>: the p'-factor 3^2 (or 5^2) counts as
    # central although G/C_G of it is not 2-supersoluble.
    for name, p, order in [("ASL(2,3)", 2, 18), ("AGL(2,3)", 2, 18),
                           ("ASL(2,3)", 3, 1), ("AGL(2,5)", 2, 100)]:
        assert f_hypercenter(affine_group(name), p).order == order, (name, p)


def test_hypercenter_full_iff_member():
    for name in corpus_names():
        G = build_group(name)
        for p in prime_set(G.n):
            assert f_hypercenter(G, p).is_full is is_p_supersoluble(G, p), (name, p)


def test_hypercenter_matches_brute_oracle():
    groups = [(name, build_group(name)) for name in corpus_names()]
    groups += [(name, affine_group(name)) for name in AFFINE]
    compared = 0
    for name, G in groups:
        normals = brute_normal_lattice(G)
        for p in prime_set(G.n):
            want = brute_p_hypercyclic_hypercenter(G, p, normals)
            assert f_hypercenter(G, p).ids == want, (name, p)
            compared += 1
    assert compared >= 34 + 7
