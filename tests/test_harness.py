"""Theorem checkers and the corpus sweep."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from gpi import groups
from gpi.arith import p_part
from gpi.catalog import build_group, corpus_names
from gpi.cli import main
from gpi.formations import f_hypercenter
from gpi.groups import LimitExceeded, Subgroup, TableGroup
from gpi.series import (
    _core_steps,
    climb,
    hypercenter,
    is_p_soluble,
    minimal_normal_overgroups,
    normal_subgroups,
)
from gpi.sylow import is_quaternion_free
from gpi import verify as verify_mod
from gpi.verify import (
    CHECKERS,
    CONCLUSIONS,
    LABELS,
    THEOREM_IDS,
    run_corpus,
    verify_theorem,
)
from affine import AFFINE, affine_group
from oracles import is_factor_central_literal


def test_theorem_id_table():
    assert THEOREM_IDS == ("t11", "t12", "t13", "t14", "cls", "l28", "l214")
    assert set(LABELS) == set(CHECKERS) == set(THEOREM_IDS)
    with pytest.raises(ValueError):
        verify_theorem("t99", build_group("S4"))


def test_t13_on_s4():
    # p=2: D8 contains a cyclic subgroup of order 4, refused in S4, so the
    # hypothesis fails; p=3: the Sylow has order 3 < 9, not applicable.
    rep = verify_theorem("t13", build_group("S4"))
    assert rep.instances == 2
    assert rep.applicable == 1
    assert rep.hypothesis_true == 0
    assert rep.ok
    by_p = {d["p"]: d for d in rep.details}
    assert by_p[2]["hypothesis"] is False
    assert by_p[3]["applicable"] is False


def test_cls_branch_on_sl25():
    # The only 2-maximal subgroup of Q8 is the centre, which has a witness,
    # so the hypothesis holds; SL(2,5) is not 2-soluble and |P| = 8, so the
    # conclusion must come from the quaternion branch.
    rep = verify_theorem("cls", build_group("SL(2,5)"))
    assert rep.applicable == 1
    assert rep.hypothesis_true == 1
    assert rep.ok
    d = next(d for d in rep.details if d["p"] == 2)
    assert d["hypothesis"] is True and d["conclusion"] is True
    assert d["family"] == 1


def test_t14_quaternion_clause_is_load_bearing():
    # Without the order-4 cyclics the 2-maximal family of Q8 would pass on
    # SL(2,5) while the conclusion fails; the clause must kill the
    # hypothesis.
    rep = verify_theorem("t14", build_group("SL(2,5)"), primes=[2])
    (d,) = rep.details
    assert d["family"] == 1 + 3
    assert d["hypothesis"] is False
    assert rep.ok


def test_l28_hypothesis_profiles():
    # Every Sylow subgroup of A5 is refused, so the lemma is vacuous there;
    # in S4 both Sylows have witnesses and S4 is soluble.
    rep = verify_theorem("l28", build_group("A5"))
    assert rep.instances == 3 and rep.hypothesis_true == 0 and rep.ok
    rep = verify_theorem("l28", build_group("S4"))
    assert rep.instances == 2 and rep.hypothesis_true == 2 and rep.ok
    assert all(d["conclusion"] for d in rep.details)


def test_l214_checks_both_directions():
    rep = verify_theorem("l214", build_group("SL(2,3)"))
    assert rep.instances == 2
    assert {d["order"] for d in rep.details} == {2, 8}
    by_order = {d["order"]: d for d in rep.details}
    assert by_order[2]["left"] and by_order[2]["right"]
    assert not by_order[8]["left"] and not by_order[8]["right"]
    assert all(d["conclusion"] for d in rep.details)


def test_prime_restriction():
    G = build_group("S4")
    rep = verify_theorem("t11", G, primes=[2])
    # Normal subgroups of even order: V4, A4, S4.
    assert rep.instances == 3
    assert all(d["p"] == 2 for d in rep.details)
    rep = verify_theorem("l28", G, primes=[3])
    assert rep.instances == 1 and rep.details[0]["p"] == 3
    assert verify_theorem("t13", G, primes=[7]).instances == 0


def test_normal_restriction():
    G = build_group("S4")
    v4 = next(N for N in normal_subgroups(G) if N.order == 4)
    rep = verify_theorem("t12", G, normal_only=v4)
    assert rep.instances == 1
    assert rep.details[0]["E"] == 4
    with pytest.raises(ValueError):
        verify_theorem("l28", G, normal_only=v4)
    four_cycle = next(g for g in range(G.n) if G.element_order(g) == 4)
    with pytest.raises(ValueError):
        verify_theorem("t11", G, normal_only=G.generated([four_cycle]))


def test_exhaustive_mode_scans_whole_family():
    G = build_group("S4")
    fast = verify_theorem("t13", G, primes=[2]).details[0]
    full = verify_theorem("t13", G, exhaustive=True, primes=[2]).details[0]
    assert fast["checked"] < full["checked"] == full["family"]
    # Exhaustive mode still evaluates the conclusion under a false
    # hypothesis, for the record, without creating violations.
    assert full["hypothesis"] is False
    assert full["conclusion"] is not None


def test_t14_on_a_cyclic_sylow_beyond_order_512():
    # Only a Sylow 2-subgroup of order 8 can be Q8, so t14 puts no size
    # ceiling on P.  A table group keeps this fast: on a cyclic permutation
    # group of large degree, each principal normal closure costs |G| products
    # of that degree.
    C = TableGroup(1024, lambda a, b: (a + b) % 1024, lambda a: -a % 1024,
                   gens=[1], name="C1024")
    rep = verify_theorem("t14", C)
    assert [(d["p"], d["sylow"], d["hypothesis"], d["conclusion"])
            for d in rep.details] == [(2, 1024, True, True)]
    assert rep.ok


def test_verify_all_covers_every_theorem():
    # One ok report per theorem, in THEOREM_IDS order, for a single group.
    reports = run_corpus(names=["SL(2,3)"])
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    assert {r.group for r in reports} == {"SL(2,3)"}
    assert all(r.ok for r in reports)


def test_run_corpus_zero_violations():
    reports = run_corpus(names=["S4", "A5", "SL(2,3)"])
    assert [(r.group, r.theorem) for r in reports] == [
        (name, tid) for name in ("S4", "A5", "SL(2,3)") for tid in THEOREM_IDS]
    assert all(r.ok for r in reports)


def test_theorem_and_info_paths_form_no_quotient_group(monkeypatch, capsys):
    # Every binding of the quotient constructor, and the re-rooting of a
    # subgroup as a group, raise; fresh handles keep memoised results from
    # hiding a call.  The corpus sweep and `gpi info` still succeed.
    def refuse(*args, **kwargs):
        raise AssertionError("a quotient group or a re-rooted subgroup was built")

    original = groups.quotient
    for name, mod in list(sys.modules.items()):
        if (name == "gpi" or name.startswith("gpi.")) and getattr(mod, "quotient", None) is original:
            monkeypatch.setattr(mod, "quotient", refuse)
    monkeypatch.setattr(Subgroup, "as_group", refuse)
    monkeypatch.setattr(sys.modules["gpi.catalog"], "_BUILT", {})
    reports = run_corpus(names=["S4", "SL(2,3)", "GL(2,3)"])
    assert len(reports) == 3 * len(THEOREM_IDS) and all(r.ok for r in reports)
    assert main(["info", "S4"]) == 0
    assert "hypercenter 1" in capsys.readouterr().out


def test_run_corpus_records_resource_errors_as_skips(monkeypatch):
    def blown(G, exhaustive=False, primes=None):
        raise LimitExceeded("synthetic ceiling")

    monkeypatch.setitem(verify_mod.CHECKERS, "l28", blown)
    reports = run_corpus(names=["S4"], tids=["l28", "l214"])
    skipped = next(r for r in reports if r.theorem == "l28")
    assert skipped.ok and skipped.applicable == 0
    assert skipped.details == [{"applicable": False, "skipped": "synthetic ceiling"}]
    assert next(r for r in reports if r.theorem == "l214").instances > 0


def test_report_json_shape():
    rep = verify_theorem("cls", build_group("SL(2,5)"))
    data = rep.to_json()
    assert data["theorem"] == "cls"
    assert data["label"] == LABELS["cls"]
    assert data["ok"] is True and data["violations"] == []
    assert data["instances"] == len(data["details"])


def test_corpus_catalogue_is_big_enough():
    assert len(corpus_names()) >= 15


@pytest.mark.parametrize("name", list(AFFINE))
def test_t11_t12_hold_on_affine_groups(name):
    # These groups have p'-chief factors on which G/C_G acts without being
    # p-supersoluble, so they tell the two readings of Z_{U_p}(G) apart.
    G = affine_group(name)
    for tid in ("t11", "t12"):
        rep = verify_theorem(tid, G)
        assert rep.ok, (tid, rep.violations)
        assert rep.hypothesis_true >= 1, tid


def _doerk_hawkes_hypercenter(G, p):
    """Z_{U_p}(G) under Doerk-Hawkes centrality: climb the chief factors
    M/Z whose literal product with G/C_G(M/Z) is p-supersoluble."""
    Z = G.trivial_subgroup()
    while True:
        for M in minimal_normal_overgroups(G, Z):
            if is_factor_central_literal(G, Z, M, p):
                Z = M
                break
        else:
            return Z


def _p_nilpotent(G, p):
    # O_{p'}(G), the climb through chief factors of order prime to p.
    o_p_prime = climb(G, G.trivial_subgroup(), _core_steps(p)["p'"])
    return o_p_prime.order * p_part(G.n, p) == G.n


def _is_q8(P):
    return P.order == 8 and not is_quaternion_free(P)


# Negative controls: each row swaps one theorem's conclusion for a mutant
# that drops a clause or strengthens one, and names the instances, as
# (p, |E|) or (p, |P|), where the mutant is violated on one group.
NEGATIVE_CONTROLS = [
    pytest.param("t11", lambda G, p, E, P: E.ids <= f_hypercenter(G, p).ids,
                 "A5", [(3, 60), (5, 60)], id="t11-without-p-part-p"),
    pytest.param("t11", lambda G, p, E, P: p_part(E.order, p) == p,
                 "C12", [(2, 4), (2, 12)], id="t11-without-hypercentre"),
    # <-I> has the property in 3^2:<-I>, but G/C_G(3^2) = SL(2,3) is not
    # 2-supersoluble, so the Doerk-Hawkes hypercentre is 1.
    pytest.param("t12", lambda G, p, E, P: E.ids <= _doerk_hawkes_hypercenter(G, p).ids,
                 "ASL(2,3)", [(2, 18)], id="t12-doerk-hawkes"),
    pytest.param("t12", lambda G, p, E, P: E.ids <= hypercenter(G).ids,
                 "S3", [(3, 3), (2, 6), (3, 6)], id="t12-plain-hypercentre"),
    pytest.param("t13", lambda G, p, E, P: _p_nilpotent(G, p),
                 "A4", [(2, 4)], id="t13-p-nilpotent"),
    pytest.param("t14", lambda G, p, E, P: _p_nilpotent(G, p),
                 "5^4:3", [(5, 625)], id="t14-p-nilpotent"),
    pytest.param("cls", lambda G, p, E, P: is_p_soluble(G, p) or P.order == p * p,
                 "SL(2,5)", [(2, 8)], id="cls-without-q8"),
    pytest.param("cls", lambda G, p, E, P: is_p_soluble(G, p) or _is_q8(P),
                 "A5", [(2, 4)], id="cls-without-p-squared"),
    pytest.param("cls", lambda G, p, E, P: P.order == p * p or _is_q8(P),
                 "D8", [(2, 8)], id="cls-without-p-soluble"),
    pytest.param("l28", lambda G, p, E, P: _p_nilpotent(G, p),
                 "S4", [(2, 8), (3, 3)], id="l28-p-nilpotent"),
]


@pytest.mark.parametrize("tid, conclusion, name, killed", NEGATIVE_CONTROLS)
def test_negative_control_kills_the_mutated_conclusion(monkeypatch, tid, conclusion, name, killed):
    G = affine_group(name) if name in AFFINE else build_group(name)
    assert verify_theorem(tid, G).ok
    monkeypatch.setitem(CONCLUSIONS, tid, conclusion)
    rep = verify_theorem(tid, G)
    assert [(d["p"], d.get("E", d.get("sylow"))) for d in rep.violations] == killed


@pytest.mark.parametrize("exhaustive, digest", [
    (False, "556b83c153af5cc578b161952e627c842b30d77f9b3a51942a1657bfd43c64d3"),
    (True, "da7bf65137bcd9312d6c5cb88e341c0031dc0a1a66369202c01f032343670b95"),
])
def test_corpus_reports_are_pinned_in_both_sweep_modes(exhaustive, digest):
    reports = run_corpus(exhaustive=exhaustive)
    blob = json.dumps([r.to_json() for r in reports], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
