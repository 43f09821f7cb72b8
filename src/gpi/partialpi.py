"""Deciding the partial Pi-property of a subgroup over chief series.

A subgroup H of G has the property when some chief series
1 = T0 < T1 < ... < Tn = G exists such that for every factor M/K the
normalizer of (HK meet M)/K in G/K has index a pi-number, where pi is
the set of primes dividing |(HK meet M)/K|.  A trivial meet makes the
factor pass vacuously: pi is empty and only the index 1 is an
empty-pi-number.

Each factor is evaluated on the K-cosets of G, as the definition reads
it, with no quotient group materialised.  With K normal and K <= M, the
modular law gives HK meet M = (H meet M)K, so the meet's image in G/K
is the set of K-coset numbers that H meet M hits (`G.left_cosets`), and
its normalizer orbit in G/K runs on those numbers through the coset
conjugation tables of K (`G.coset_conjugation_tables`).  Over a trivial
K the cosets are the ids themselves and the orbit runs on ids.

The check depends on H only through that meet, and distinct subgroups
often share one, so it is made once per group and query: a meet equal to
K or M needs no orbit, and one table on the group holds every other check
by (K's ids, M's ids, meet), filled the first time a query misses it.  A
refusal must show every chain blocked, so it repeats the checks of many
earlier verdicts; each costs one meet read-off and one lookup.
"""

from __future__ import annotations

from operator import itemgetter

from .arith import is_pi_number, prime_set
from .groups import FiniteGroup, FrozenRecord, Record, Subgroup, memo
from .series import ChiefSeries, minimal_normal_overgroups, node_table
from .structure import normalizer_index


class FactorCheck(FrozenRecord):
    """One chief factor M/K tested against a fixed subgroup H."""

    __slots__ = ("k_order", "m_order", "meet_order", "index", "pi", "passed")

    def __init__(self, k_order: int, m_order: int, meet_order: int, index: int,
                 pi: tuple[int, ...], passed: bool):
        self._fix(k_order, m_order, meet_order, index, pi, passed)

    def to_json(self) -> dict:
        return {
            "k": self.k_order,
            "m": self.m_order,
            "meet": self.meet_order,
            "index": self.index,
            "pi": list(self.pi),
            "passed": self.passed,
        }


def factor_condition(G: FiniteGroup, H: Subgroup, K: Subgroup, M: Subgroup) -> FactorCheck:
    """Test the factor M/K against H on the K-cosets of G.

    The meet (H meet M)K/K is read as the set of K-coset numbers that
    H meet M hits, gathered from the coset labels by one `itemgetter`
    call, so |meet| = cosets * |K| with no id-set of that size built, and
    |K| and |M| are the sizes of their id-sets.  A meet equal to K or M is
    normal and has index 1.  Any other check is made once per group and
    query: it is stored in `G.memo["factor_condition"]` under (K's ids,
    M's ids, meet), and a miss runs the meet's normalizer orbit in G/K
    (`normalizer_index`).  Checks of equal value are one object
    (`_factor_check`), so equal queries return the same `FactorCheck`.

    The shortcuts stay outside the table: each would hash a freshly built
    meet to look it up, and with them inside, the `verdicts-s7` benchmark
    sweep was slower in three runs of three (0.434, 0.434, 0.405 s against
    0.456, 0.446, 0.437 s).
    """
    if not (H.group is G and K.group is G and M.group is G):
        raise ValueError("subgroup belongs to a different group")
    k_ids, m_ids = K.ids, M.ids
    hm = H.ids & m_ids
    if len(k_ids) == 1:
        meet = hm
    else:
        # H meet M holds the identity, so asking for id 0 as well changes
        # no set and keeps the gather a tuple when the meet is trivial.
        meet = frozenset(itemgetter(0, *hm)(G.left_cosets(k_ids)[0]))
    k, m = len(k_ids), len(m_ids)
    meet_order = len(meet) * k
    if meet_order == k or meet_order == m:
        return _factor_check(G, k, m, meet_order, 1)
    checks = G.memo.get("factor_condition")
    if checks is None:
        checks = G.memo["factor_condition"] = {}
    query = (k_ids, m_ids, meet)
    check = checks.get(query)
    if check is None:
        index = normalizer_index(G, meet, modulus=None if k == 1 else k_ids)
        check = checks[query] = _factor_check(G, k, m, meet_order, index)
    return check


@memo
def _factor_check(G: FiniteGroup, k: int, m: int, meet: int, index: int) -> FactorCheck:
    """The check with these orders and index, made once per group and value."""
    pi = prime_set(meet // k)
    return FactorCheck(k, m, meet, index, pi, is_pi_number(index, pi))


class PiWitness(Record):
    """A chief series over which every factor check passes."""

    __slots__ = ("group", "subgroup", "terms", "checks")
    satisfied = True

    def __init__(self, group: FiniteGroup, subgroup: Subgroup, terms: list[Subgroup],
                 checks: list[FactorCheck]):
        self.group, self.subgroup, self.terms, self.checks = group, subgroup, terms, checks

    def series(self) -> ChiefSeries:
        return ChiefSeries(self.group, self.terms)

    def verify(self) -> bool:
        """Revalidate the series and recompute every factor check; each
        check is made once per group and query, so a replay on the deciding
        handle reads the checks the search made."""
        try:
            self.series().validate()
        except ValueError:
            return False
        if len(self.checks) != len(self.terms) - 1:
            return False
        for K, M, want in zip(self.terms, self.terms[1:], self.checks):
            if factor_condition(self.group, self.subgroup, K, M) != want:
                return False
            if not want.passed:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "verdict": "witness",
            "subgroup": _describe(self.subgroup),
            "series": [t.order for t in self.terms],
            "checks": [c.to_json() for c in self.checks],
        }


class PiRefusal(Record):
    """Proof that no chief series works: every maximal normal chain from
    the trivial subgroup runs into a blocked term.

    `blocked` pairs each explored term, the handle the search held for
    it, with the checks of all its chief factors; entries that passed
    lead to terms that are blocked too.  The repr leaves it out.
    """

    __slots__ = ("group", "subgroup", "blocked")
    _unshown = ("blocked",)
    satisfied = False

    def __init__(self, group: FiniteGroup, subgroup: Subgroup,
                 blocked: list[tuple[Subgroup, list[FactorCheck]]]):
        self.group, self.subgroup, self.blocked = group, subgroup, blocked

    @property
    def explored(self) -> int:
        return len(self.blocked)

    def to_json(self) -> dict:
        return {
            "verdict": "refusal",
            "subgroup": _describe(self.subgroup),
            "explored": self.explored,
            "blocked": [
                {"at": state.order, "factors": [c.to_json() for c in checks]}
                for state, checks in self.blocked
            ],
        }


def _describe(H: Subgroup) -> dict:
    return {
        "order": H.order,
        "generators": [H.group.label(g) for g in H.gens],
    }


@memo
def satisfies_partial_pi(G: FiniteGroup, H: Subgroup):
    """Decide the property for H in G.

    Depth-first search over the chief series tree: steps from a term K go
    to its minimal normal overgroups, one at a time.  Terms from which no
    passing completion exists are memoised, so each is expanded once;
    when the trivial term is among them, their handles and checks are the
    refusal, with no subgroup rebuilt, ordered by their node sort keys.
    """
    if H.group is not G:
        raise ValueError("subgroup belongs to a different group")
    n = G.n
    dead: dict[frozenset[int], tuple[Subgroup, list[FactorCheck]]] = {}

    def explore(state: Subgroup, terms: list[Subgroup], checks: list[FactorCheck]):
        if len(state.ids) == n:
            return PiWitness(G, H, terms, checks)
        seen: list[FactorCheck] = []
        for M in minimal_normal_overgroups(G, state):
            fc = factor_condition(G, H, state, M)
            seen.append(fc)
            if not fc.passed or M.ids in dead:
                continue
            found = explore(M, terms + [M], checks + [fc])
            if found is not None:
                return found
        dead[state.ids] = (state, seen)
        return None

    trivial = G.trivial_subgroup()
    found = explore(trivial, [trivial], [])
    if found is not None:
        return found
    nodes = node_table(G)
    return PiRefusal(G, H, [dead[ids] for ids in sorted(dead, key=lambda ids: nodes[ids][0])])
