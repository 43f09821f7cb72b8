"""Machine checks of the structural theorems on concrete groups.

Each checker quantifies a theorem over one group: it enumerates the
instances (a prime, and for the normal-subgroup theorems a normal E),
evaluates the hypothesis by sweeping the stated family of subgroups
through the chief-series property, and tests the conclusion whenever
the hypothesis holds.  A violation is an instance with a true
hypothesis and a false conclusion; a correct theorem produces none on
any group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import p_part, prime_set
from .formations import f_hypercenter
from .groups import FiniteGroup, LimitExceeded, Subgroup
from .partialpi import satisfies_partial_pi
from .series import hypercenter, is_p_soluble, normal_subgroups, p_length
from .structure import p_residual
from .sylow import (
    cyclic_subgroups_of_order,
    is_quaternion_free,
    maximal_subgroups_of_p_group,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)


@dataclass
class TheoremReport:
    theorem: str
    label: str
    group: str
    details: list[dict] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return len(self.details)

    @property
    def applicable(self) -> int:
        return sum(1 for d in self.details if d.get("applicable", True))

    @property
    def hypothesis_true(self) -> int:
        return sum(1 for d in self.details if d.get("hypothesis"))

    @property
    def violations(self) -> list[dict]:
        return [d for d in self.details if d.get("hypothesis") and d.get("conclusion") is False]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "label": self.label,
            "group": self.group,
            "instances": self.instances,
            "applicable": self.applicable,
            "hypothesis_true": self.hypothesis_true,
            "ok": self.ok,
            "violations": self.violations,
            "details": self.details,
        }


LABELS = {
    "t11": "sylow-maximal-hypercentral",
    "t12": "prime-cyclic-hypercentral",
    "t13": "two-minimal-p-length",
    "t14": "two-maximal-p-length",
    "cls": "two-maximal-classification",
    "l28": "sylow-property-p-soluble",
    "l214": "normal-p-subgroup-hypercentral",
}


def _primes(n: int, primes) -> list[int]:
    base = prime_set(n)
    if primes is None:
        return list(base)
    wanted = set(primes)
    return [p for p in base if p in wanted]


def _normals(G: FiniteGroup, normal_only) -> list[Subgroup]:
    if normal_only is None:
        return normal_subgroups(G)
    if normal_only not in normal_subgroups(G):
        raise ValueError("the requested subgroup is not normal")
    return [normal_only]


def _family_all_satisfy(G: FiniteGroup, family, exhaustive: bool) -> tuple[bool, int]:
    """Sweep the family through the property; stop at the first refusal
    unless asked to be exhaustive."""
    verdict = True
    checked = 0
    for H in family:
        checked += 1
        if not satisfies_partial_pi(G, H).satisfied:
            verdict = False
            if not exhaustive:
                break
    return verdict, checked


def _p_soluble_of_length_one(G: FiniteGroup, p: int) -> bool:
    return is_p_soluble(G, p) and p_length(G, p) <= 1


def _minimal_cyclic_family(G: FiniteGroup, P: Subgroup, p: int) -> list[Subgroup]:
    family = cyclic_subgroups_of_order(P, p)
    if p == 2 and not is_quaternion_free(P):
        family = family + cyclic_subgroups_of_order(P, 4)
    return family


def verify_t11(G: FiniteGroup, exhaustive: bool = False, primes=None, normal_only=None) -> TheoremReport:
    """Normal E whose Sylow p-subgroup has all maximal subgroups with the
    property: E lies in the U_p-hypercentre or |E| has p-part exactly p.

    Z_{U_p}(G) is the p-hypercyclic hypercentre (`f_hypercenter`), as in
    t12: every G-chief factor below it of order divisible by p has
    order p."""
    rep = TheoremReport("t11", LABELS["t11"], G.name)
    for E in _normals(G, normal_only):
        for p in _primes(E.order, primes):
            P = sylow_subgroup(G, p, within=E)
            family = maximal_subgroups_of_p_group(P)
            hyp, checked = _family_all_satisfy(G, family, exhaustive)
            concl = None
            if hyp or exhaustive:
                concl = (
                    p_part(E.order, p) == p
                    or E.ids <= f_hypercenter(G, p).ids
                )
            rep.details.append(
                {"p": p, "E": E.order, "family": len(family), "checked": checked,
                 "hypothesis": hyp, "conclusion": concl}
            )
    return rep


def verify_t12(G: FiniteGroup, exhaustive: bool = False, primes=None, normal_only=None) -> TheoremReport:
    """Normal E whose Sylow p-subgroup has all cyclic subgroups of order p
    (and of order 4, if that Sylow has a quaternion section) with the
    property: E lies in the U_p-hypercentre.

    Z_{U_p}(G) is the p-hypercyclic hypercentre of the partial-Pi
    literature (`f_hypercenter`): every G-chief factor below it of order
    divisible by p has order p, and p'-factors are unrestricted.  The
    Doerk-Hawkes reading also asks G/C_G(M/K) to be p-supersoluble for
    a p'-factor; under it the theorem fails on ASL(2,3) = 3^2:SL(2,3)
    with p = 2 and |E| = 18, whose family <-I> has the property while
    G/C_G(3^2) = SL(2,3) is not 2-supersoluble."""
    rep = TheoremReport("t12", LABELS["t12"], G.name)
    for E in _normals(G, normal_only):
        for p in _primes(E.order, primes):
            P = sylow_subgroup(G, p, within=E)
            family = _minimal_cyclic_family(G, P, p)
            hyp, checked = _family_all_satisfy(G, family, exhaustive)
            concl = None
            if hyp or exhaustive:
                concl = E.ids <= f_hypercenter(G, p).ids
            rep.details.append(
                {"p": p, "E": E.order, "family": len(family), "checked": checked,
                 "hypothesis": hyp, "conclusion": concl}
            )
    return rep


def verify_t13(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^2 with every subgroup of order
    p^2 having the property: G is p-soluble of p-length at most 1."""
    rep = TheoremReport("t13", LABELS["t13"], G.name)
    for p in _primes(G.n, primes):
        P = sylow_subgroup(G, p)
        if P.order < p * p:
            rep.details.append({"p": p, "sylow": P.order, "applicable": False})
            continue
        family = two_minimal_subgroups(P, p)
        hyp, checked = _family_all_satisfy(G, family, exhaustive)
        concl = None
        if hyp or exhaustive:
            concl = _p_soluble_of_length_one(G, p)
        rep.details.append(
            {"p": p, "sylow": P.order, "family": len(family), "checked": checked,
             "hypothesis": hyp, "conclusion": concl}
        )
    return rep


def verify_t14(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^3 with every subgroup of index
    p^2 in it having the property (plus every cyclic subgroup of order 4,
    when that Sylow is the order-8 quaternion group): G is p-soluble of
    p-length at most 1."""
    rep = TheoremReport("t14", LABELS["t14"], G.name)
    for p in _primes(G.n, primes):
        P = sylow_subgroup(G, p)
        if P.order < p**3:
            rep.details.append({"p": p, "sylow": P.order, "applicable": False})
            continue
        family = list(two_maximal_subgroups_of_p_group(P))
        if P.order == 8 and not is_quaternion_free(P):  # P is Q8
            family += cyclic_subgroups_of_order(P, 4)
        hyp, checked = _family_all_satisfy(G, family, exhaustive)
        concl = None
        if hyp or exhaustive:
            concl = _p_soluble_of_length_one(G, p)
        rep.details.append(
            {"p": p, "sylow": P.order, "family": len(family), "checked": checked,
             "hypothesis": hyp, "conclusion": concl}
        )
    return rep


def verify_cls(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^2 with every subgroup of index
    p^2 in it having the property: G is p-soluble, or that Sylow has order
    exactly p^2, or p = 2 and it is the order-8 quaternion group."""
    rep = TheoremReport("cls", LABELS["cls"], G.name)
    for p in _primes(G.n, primes):
        P = sylow_subgroup(G, p)
        if P.order < p * p:
            rep.details.append({"p": p, "sylow": P.order, "applicable": False})
            continue
        family = two_maximal_subgroups_of_p_group(P)
        hyp, checked = _family_all_satisfy(G, family, exhaustive)
        concl = None
        if hyp or exhaustive:
            concl = (
                is_p_soluble(G, p)
                or P.order == p * p
                or (P.order == 8 and not is_quaternion_free(P))  # P is Q8
            )
        rep.details.append(
            {"p": p, "sylow": P.order, "family": len(family), "checked": checked,
             "hypothesis": hyp, "conclusion": concl}
        )
    return rep


def verify_l28(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """A Sylow p-subgroup with the property forces G to be p-soluble."""
    rep = TheoremReport("l28", LABELS["l28"], G.name)
    for p in _primes(G.n, primes):
        P = sylow_subgroup(G, p)
        hyp = satisfies_partial_pi(G, P).satisfied
        concl = None
        if hyp or exhaustive:
            concl = is_p_soluble(G, p)
        rep.details.append(
            {"p": p, "sylow": P.order, "family": 1, "checked": 1,
             "hypothesis": hyp, "conclusion": concl}
        )
    return rep


def verify_l214(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """For a normal p-subgroup P: P lies in the hypercenter exactly when
    the p-residual centralises P.  Checked as an equivalence."""
    rep = TheoremReport("l214", LABELS["l214"], G.name)
    for p in _primes(G.n, primes):
        res = p_residual(G, p)
        for P in normal_subgroups(G):
            if P.order == 1 or p_part(P.order, p) != P.order:
                continue
            left = P.ids <= hypercenter(G).ids
            right = all(G.mul(a, b) == G.mul(b, a) for a in res.gens for b in P.gens)
            rep.details.append(
                {"p": p, "order": P.order, "left": left, "right": right,
                 "hypothesis": True, "conclusion": left == right}
            )
    return rep


CHECKERS = {
    "t11": verify_t11,
    "t12": verify_t12,
    "t13": verify_t13,
    "t14": verify_t14,
    "cls": verify_cls,
    "l28": verify_l28,
    "l214": verify_l214,
}

THEOREM_IDS = tuple(CHECKERS)


def verify_theorem(
    tid: str,
    G: FiniteGroup,
    exhaustive: bool = False,
    primes=None,
    normal_only: Subgroup | None = None,
) -> TheoremReport:
    try:
        checker = CHECKERS[tid]
    except KeyError:
        raise ValueError(f"unknown theorem id {tid!r}; choose from {', '.join(CHECKERS)}")
    if normal_only is not None:
        if tid not in ("t11", "t12"):
            raise ValueError(f"theorem {tid} does not range over a chosen normal subgroup")
        return checker(G, exhaustive=exhaustive, primes=primes, normal_only=normal_only)
    return checker(G, exhaustive=exhaustive, primes=primes)


def run_corpus(names=None, tids=None, exhaustive: bool = False, progress=None) -> list[TheoremReport]:
    """Check the chosen theorems over the chosen groups (default: every
    corpus group, every theorem).  Returns one report per pair."""
    from .catalog import build_group, corpus_names

    names = list(names) if names is not None else corpus_names()
    tids = list(tids) if tids is not None else list(THEOREM_IDS)
    reports = []
    for name in names:
        G = build_group(name)
        for tid in tids:
            try:
                rep = verify_theorem(tid, G, exhaustive=exhaustive)
            except LimitExceeded as exc:
                # A blown ceiling means not-evaluated, never a violation.
                rep = TheoremReport(tid, LABELS[tid], G.name)
                rep.details.append({"applicable": False, "skipped": str(exc)})
            reports.append(rep)
            if progress is not None:
                progress(rep)
    return reports
