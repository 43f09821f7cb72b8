"""Metamorphic suites: how verdicts transfer to quotients, intermediate
subgroups, and series through a chosen normal subgroup."""

from __future__ import annotations

import math
import random

from gpi.arith import is_pi_number, p_part, prime_set
from gpi.catalog import build_group
from gpi.groups import Subgroup, quotient
from gpi.partialpi import satisfies_partial_pi
from gpi.series import normal_subgroups
from gpi.structure import element_power
from gpi.sylow import maximal_subgroups_of_p_group, sylow_subgroup

from oracles import (
    brute_chief_chains,
    brute_normal_lattice,
    brute_normalizer,
    partial_pi_within,
    witness_through,
)

GROUPS = [
    "S3", "S4", "A4", "A5", "D8", "Q8", "D16", "SD16", "Q16",
    "C12", "C2^3", "C3^2", "C4xC2", "M16", "SL(2,3)",
]


def _sample_subgroups(G, rng, want=12):
    """Cyclic subgroups from sampled elements plus a few two-generator
    ones, deduplicated by their id sets."""
    seen = {}
    ids = list(range(G.n))
    for a in rng.sample(ids, min(len(ids), want)):
        H = G.generated([a])
        seen.setdefault(H.ids, H)
    for _ in range(want // 2):
        a, b = rng.sample(ids, 2)
        H = G.generated([a, b])
        if not H.is_full:
            seen.setdefault(H.ids, H)
    return list(seen.values())


def _sample_p_subgroups(G, p, rng, want=8):
    """Cyclic p-subgroups, the Sylow p-subgroup, and its maximals."""
    seen = {}
    P = sylow_subgroup(G, p)
    seen[P.ids] = P
    if P.order > 1:
        for M in maximal_subgroups_of_p_group(P):
            seen.setdefault(M.ids, M)
    for a in rng.sample(range(G.n), min(G.n, want * 3)):
        o = G.element_order(a)
        q = p_part(o, p)
        if q == 1:
            continue
        H = G.generated([element_power(G, a, o // q)])
        seen.setdefault(H.ids, H)
        if len(seen) >= want:
            break
    return list(seen.values())


def test_quotient_lemma():
    # A subgroup with a witness keeps one in G/N once N <= H or
    # gcd(|H|, |N|) = 1; images are checked in the actual quotient group.
    rng = random.Random(21)
    cases = 0
    for name in GROUPS:
        G = build_group(name)
        winners = [
            H for H in _sample_subgroups(G, rng)
            if satisfies_partial_pi(G, H).satisfied
        ]
        for N in normal_subgroups(G):
            if N.is_trivial or N.is_full:
                continue
            Q, labels = quotient(G, N)
            for H in winners:
                if not (N.ids <= H.ids or math.gcd(H.order, N.order) == 1):
                    continue
                image = Q.generated([labels[g] for g in H.gens])
                assert satisfies_partial_pi(Q, image).satisfied, (
                    name, N.order, H.order,
                )
                cases += 1
    assert cases >= 100, cases


def test_intermediate_subgroup_lemma():
    # A p-subgroup with a witness in G has one in every subgroup between.
    rng = random.Random(22)
    cases = 0
    for name in GROUPS:
        G = build_group(name)
        for p in prime_set(G.n):
            for H in _sample_p_subgroups(G, p, rng):
                if not satisfies_partial_pi(G, H).satisfied:
                    continue
                overs = {G.full_subgroup().ids: G.full_subgroup()}
                NH = brute_normalizer(G, H.ids)
                overs[NH] = Subgroup(G, NH)
                for N in normal_subgroups(G):
                    if H.ids <= N.ids:
                        overs.setdefault(N.ids, N)
                for _ in range(3):
                    N = G.generated([*H.gens, rng.randrange(G.n)])
                    overs.setdefault(N.ids, N)
                for N in overs.values():
                    assert partial_pi_within(H, N).satisfied, (
                        name, p, H.order, N.order,
                    )
                    cases += 1
    assert cases >= 100, cases


def test_through_series_lemma():
    # A p-subgroup with a witness inside a normal N admits a witness whose
    # series passes through N, with every normalizer index a p-number.
    # The series are the brute chief chains, not the engine's search.
    rng = random.Random(23)
    cases = 0
    for name in GROUPS:
        G = build_group(name)
        chains = brute_chief_chains(G, brute_normal_lattice(G))
        for p in prime_set(G.n):
            for H in _sample_p_subgroups(G, p, rng):
                if not satisfies_partial_pi(G, H).satisfied:
                    continue
                for N in normal_subgroups(G):
                    if not H.ids <= N.ids:
                        continue
                    w = witness_through(G, H, N, chains)
                    assert w is not None, (name, p, H.order, N.order)
                    assert w.verify()
                    assert any(t.ids == N.ids for t in w.terms)
                    assert all(is_pi_number(c.index, (p,)) for c in w.checks)
                    cases += 1
    assert cases >= 100, cases


def test_conjugation_invariance():
    rng = random.Random(24)
    cases = 0
    for name in ["S4", "A5", "SL(2,3)", "D16", "C12", "Q16"]:
        G = build_group(name)
        for H in _sample_subgroups(G, rng, want=10):
            verdict = satisfies_partial_pi(G, H).satisfied
            for _ in range(3):
                g = rng.randrange(G.n)
                Hg = G.generated([G.conj(x, g) for x in H.gens])
                assert satisfies_partial_pi(G, Hg).satisfied is verdict
                cases += 1
    assert cases >= 100, cases
