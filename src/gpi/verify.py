"""Machine checks of the structural theorems on concrete groups.

Six of the seven results read: if every member of a family built from a
Sylow p-subgroup P has the chief-series property, a conclusion holds.
Each checker names its family; its conclusion sits in `CONCLUSIONS`,
which the loops read at call time, so a negative control can swap one
clause.  `_over_normals` (t11, t12) and `_over_sylows` (t13, t14, cls,
l28) enumerate the instances, and `_instance` sweeps the family and
tests the conclusion whenever the hypothesis holds.  A violation is a
true hypothesis with a false conclusion; a correct theorem has none on
any group.  l214, an equivalence, has its own loop.
"""

from __future__ import annotations

from .arith import p_part, prime_set
from .formations import f_hypercenter
from .groups import FiniteGroup, LimitExceeded, Record, Subgroup
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


class TheoremReport(Record):
    """One theorem checked on one group: a detail dict per instance."""

    __slots__ = ("theorem", "label", "group", "details")

    def __init__(self, theorem: str, label: str, group: str, details: list[dict] | None = None):
        self.theorem, self.label, self.group = theorem, label, group
        self.details = [] if details is None else details

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


def _is_q8(P: Subgroup) -> bool:
    # Q8 is the only group of order 8 with a Q8 section.
    return P.order == 8 and not is_quaternion_free(P)


# Each conclusion reads (G, p, E, P): E is the normal subgroup of a t11 or
# t12 instance (None for the Sylow theorems) and P its Sylow p-subgroup.
CONCLUSIONS = {
    "t11": lambda G, p, E, P: p_part(E.order, p) == p or E.ids <= f_hypercenter(G, p).ids,
    "t12": lambda G, p, E, P: E.ids <= f_hypercenter(G, p).ids,
    "t13": lambda G, p, E, P: is_p_soluble(G, p) and p_length(G, p) <= 1,
    "t14": lambda G, p, E, P: is_p_soluble(G, p) and p_length(G, p) <= 1,
    "cls": lambda G, p, E, P: is_p_soluble(G, p) or P.order == p * p or _is_q8(P),
    "l28": lambda G, p, E, P: is_p_soluble(G, p),
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


def _instance(G: FiniteGroup, detail: dict, family, conclusion, exhaustive: bool) -> dict:
    """Sweep the family through the property, stopping at the first refusal
    unless asked to be exhaustive, and evaluate `conclusion()` when the
    hypothesis holds (always, in exhaustive mode).  Completes `detail`."""
    hyp, checked = True, 0
    for H in family:
        checked += 1
        if not satisfies_partial_pi(G, H).satisfied:
            hyp = False
            if not exhaustive:
                break
    detail.update(family=len(family), checked=checked, hypothesis=hyp,
                  conclusion=conclusion() if hyp or exhaustive else None)
    return detail


def _over_normals(tid: str, G: FiniteGroup, family_of, exhaustive, primes, normal_only):
    """One instance per normal E and prime p of |E|; the family is
    `family_of(P, p)` for P a Sylow p-subgroup of E."""
    rep = TheoremReport(tid, LABELS[tid], G.name)
    for E in _normals(G, normal_only):
        for p in _primes(E.order, primes):
            P = sylow_subgroup(G, p, within=E)
            rep.details.append(_instance(
                G, {"p": p, "E": E.order}, family_of(P, p),
                lambda: CONCLUSIONS[tid](G, p, E, P), exhaustive))
    return rep


def _over_sylows(tid: str, G: FiniteGroup, least: int, family_of, exhaustive, primes):
    """One instance per prime p of |G|, not applicable when the Sylow
    p-subgroup P has order below p^least; the family is `family_of(P, p)`."""
    rep = TheoremReport(tid, LABELS[tid], G.name)
    for p in _primes(G.n, primes):
        P = sylow_subgroup(G, p)
        detail = {"p": p, "sylow": P.order}
        if P.order < p**least:
            detail["applicable"] = False
        else:
            _instance(G, detail, family_of(P, p),
                      lambda: CONCLUSIONS[tid](G, p, None, P), exhaustive)
        rep.details.append(detail)
    return rep


def verify_t11(G: FiniteGroup, exhaustive: bool = False, primes=None, normal_only=None) -> TheoremReport:
    """Normal E whose Sylow p-subgroup has all maximal subgroups with the
    property: E lies in the U_p-hypercentre or |E| has p-part exactly p.

    Z_{U_p}(G) is the p-hypercyclic hypercentre (`f_hypercenter`), as in
    t12: every G-chief factor below it of order divisible by p has
    order p."""
    return _over_normals("t11", G, lambda P, p: maximal_subgroups_of_p_group(P),
                         exhaustive, primes, normal_only)


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
    def family_of(P, p):
        fours = cyclic_subgroups_of_order(P, 4) if p == 2 and not is_quaternion_free(P) else []
        return cyclic_subgroups_of_order(P, p) + fours

    return _over_normals("t12", G, family_of, exhaustive, primes, normal_only)


def verify_t13(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^2 with every subgroup of order
    p^2 having the property: G is p-soluble of p-length at most 1."""
    return _over_sylows("t13", G, 2, two_minimal_subgroups, exhaustive, primes)


def verify_t14(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^3 with every subgroup of index
    p^2 in it having the property (plus every cyclic subgroup of order 4,
    when that Sylow is the order-8 quaternion group): G is p-soluble of
    p-length at most 1."""
    def family_of(P, p):
        fours = cyclic_subgroups_of_order(P, 4) if _is_q8(P) else []
        return two_maximal_subgroups_of_p_group(P) + fours

    return _over_sylows("t14", G, 3, family_of, exhaustive, primes)


def verify_cls(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """Sylow p-subgroup of order at least p^2 with every subgroup of index
    p^2 in it having the property: G is p-soluble, or that Sylow has order
    exactly p^2, or p = 2 and it is the order-8 quaternion group."""
    return _over_sylows("cls", G, 2, lambda P, p: two_maximal_subgroups_of_p_group(P),
                        exhaustive, primes)


def verify_l28(G: FiniteGroup, exhaustive: bool = False, primes=None) -> TheoremReport:
    """A Sylow p-subgroup with the property forces G to be p-soluble."""
    return _over_sylows("l28", G, 1, lambda P, p: [P], exhaustive, primes)


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
