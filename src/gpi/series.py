"""Normal subgroup lattice, chief series, and the predicates built on them.

The minimal normal overgroups of a normal subgroup (its chief steps, found
from the principal normal closures, one per conjugacy class) are memoised on
the group handle; they are the successor moves of every series walk in the
package, the walk over the whole lattice included.  For normal N and P the
join N v P is the product set NP, of order |N||P|/|N n P|, so the order of
every candidate step is read off an id-set intersection before any product
set is built, and the steps are found smallest first.  The characteristic
subgroups read off the lattice (the hypercentre, the p-core, the
terms of the upper p-series) are climbs along those chief steps (`climb`),
with no quotient group formed.
"""

from __future__ import annotations

from .arith import factorize, is_prime, p_part
from .groups import FiniteGroup, Record, Subgroup, closure_ids, memo, product_ids
from .structure import element_power


@memo
def principal_normal_closures(G: FiniteGroup) -> list[Subgroup]:
    """Normal closures of single elements, one per conjugacy class, deduped.

    Classes are visited by increasing element order, so ncl(x^q) is known
    for each prime q of o(x), and ncl(x) holds it.  If x lies in the largest
    of these, S, which is normal, ncl(x) is S.  Otherwise x and the
    conjugates of each element adjoined (from `conjugation_tables`) are
    adjoined to S by cosets.  ncl(x) lies in N, the smallest known closure
    holding x (or G).  It is N, and takes N's generators (G's reduced ones),
    as soon as the subgroup grown must have more than |N|/2 elements, as its
    order divides |N|, or meets a class closing to N, whose closure it holds.
    """
    reps, label = G.conjugacy_class_reps(), G.class_labels()
    tables, full = G.conjugation_tables(), G.full_subgroup()
    members: list[list[int]] = [[] for _ in reps]  # by class label
    for z, c in enumerate(label):
        members[c].append(z)
    known = [G.trivial_subgroup()] + [None] * (len(reps) - 1)  # closure by class label
    closing_to: dict[Subgroup, set] = {}  # each closure -> the ids whose closure it is
    for c in sorted(range(1, len(reps)), key=lambda c: G.element_order(reps[c])):
        x = reps[c]
        P = max((known[label[element_power(G, x, q)]] for q in factorize(G.element_order(x))),
                key=lambda S: S.order)
        if x not in P.ids:
            N = min((S for S in closing_to if x in S.ids), key=lambda S: S.order, default=full)
            H, gens, todo, stop = P.ids, P.gens, [x], closing_to.get(N, frozenset())
            for y in todo:  # grows while it is walked
                if y in H:
                    continue
                gens.append(y)
                H = closure_ids(G, gens, prior=H, bound=N.order // 2, stop=stop)
                if not H:
                    break
                todo.extend(t[y] for t in tables)
            P = Subgroup(G, H, gens=gens) if H else N
        known[c] = P
        closing_to.setdefault(P, set()).update(members[c])
    return sorted(closing_to, key=lambda S: (S.order, S.sorted_ids))


def _join_normal(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    # Both normal, so the product set is already the join.
    if A.ids <= B.ids:
        return B
    if B.ids <= A.ids:
        return A
    return Subgroup(G, product_ids(G, A.ids, B.ids), gens=A.gens + B.gens)


@memo
def minimal_normal_overgroups(G: FiniteGroup, N: Subgroup) -> tuple[Subgroup, ...]:
    """Normal subgroups M > N with nothing normal strictly between, ordered
    by (order, sorted ids).  The tuple is the memo's own, handed out
    uncopied, since every series walk only reads it.

    Every normal overgroup of N contains the closure of one of its elements,
    so the inclusion-minimal joins N v P over principal closures P are exactly
    the chief steps out of N.

    Both are normal, so |N v P| = |N||P|/|N n P| is known before the join
    is built.  The closures are walked by that order, smallest first (ties
    in closure order).  A P inside a step already taken joins N to that
    step, since its join lies in the step and is no smaller; any other
    join is built, and it is a step unless it contains one already taken.
    So each step is built once, from the first closure that reaches it,
    and no product set is formed for a closure that only reaches it again.
    """
    n = N.order
    out: list[Subgroup] = []
    for P in sorted((P for P in principal_normal_closures(G) if not P.ids <= N.ids),
                    key=lambda P: n * P.order // len(N.ids & P.ids)):
        if any(P.ids <= S.ids for S in out):
            continue
        J = _join_normal(G, N, P)
        if not any(S.ids <= J.ids for S in out):
            out.append(J)
    return tuple(sorted(out, key=lambda S: (S.order, S.sorted_ids)))


@memo
def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The full normal subgroup lattice: the closure of {1} under chief
    steps, since every normal subgroup lies on some chief series."""
    triv = G.trivial_subgroup()
    seen: dict[frozenset, Subgroup] = {triv.ids: triv}
    todo = [triv]
    for N in todo:  # grows while it is walked
        for M in minimal_normal_overgroups(G, N):
            if M.ids not in seen:
                seen[M.ids] = M
                todo.append(M)
    return sorted(seen.values(), key=lambda S: (S.order, S.sorted_ids))


class ChiefSeries(Record):
    """A maximal normal chain 1 = T0 < T1 < ... < Tk = G."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteGroup, terms: list[Subgroup]):
        self.group, self.terms = group, terms

    def factors(self) -> list[tuple[Subgroup, Subgroup]]:
        return list(zip(self.terms, self.terms[1:]))

    def factor_orders(self) -> list[int]:
        return [m.order // k.order for k, m in self.factors()]

    def __len__(self) -> int:
        return len(self.terms) - 1

    def validate(self) -> None:
        terms = self.terms
        G = self.group
        if not terms or not terms[0].is_trivial or not terms[-1].is_full:
            raise ValueError("series must run from the trivial subgroup to the group")
        for K, M in self.factors():
            if not K < M:
                raise ValueError("series terms must increase strictly")
            if M not in minimal_normal_overgroups(G, K):
                raise ValueError(
                    f"factor of order {M.order // K.order} above order {K.order} "
                    "is not a chief factor"
                )

    def describe(self) -> str:
        return " < ".join(str(t.order) for t in self.terms)


def one_chief_series(G: FiniteGroup) -> ChiefSeries:
    """The deterministic chief series: always take the first minimal step."""
    G.materialize()
    terms = [G.trivial_subgroup()]
    while not terms[-1].is_full:
        terms.append(minimal_normal_overgroups(G, terms[-1])[0])
    return ChiefSeries(G, terms)


def climb(G: FiniteGroup, Z: Subgroup, step) -> Subgroup:
    """From the normal subgroup Z, take any chief step M/Z with
    `step(Z, M)` until none is left; return the last term.

    Let `step` depend only on the G-isomorphism class of M/Z, and let T be
    the largest normal subgroup over the start whose G-chief factors above
    the start all pass (the hypercentre, a core).  Then the climb ends at
    T, whichever steps it takes.  A passing step M/Z from a term Z inside
    T stays inside it: otherwise TM/T is G-isomorphic to M/Z, so TM would
    be a larger subgroup of the same kind.  Below T a passing step always
    exists: by Jordan-Holder for G-chief series, the factors of a chief
    series from the start through Z up to T are G-isomorphic to those of
    one inside T, so all pass, the first one out of Z included.
    """
    while True:
        for M in minimal_normal_overgroups(G, Z):
            if step(Z, M):
                Z = M
                break
        else:
            return Z


# -- series-driven predicates.  Factor orders are series-independent, so one
# -- deterministic series decides each of these.


def is_soluble(G: FiniteGroup) -> bool:
    return all(len(factorize(k)) == 1 for k in one_chief_series(G).factor_orders())


def is_p_soluble(G: FiniteGroup, p: int) -> bool:
    return all(
        k % p or factorize(k).keys() == {p} for k in one_chief_series(G).factor_orders()
    )


def is_supersoluble(G: FiniteGroup) -> bool:
    return all(len(factorize(k)) == 1 and max(factorize(k).values()) == 1
               for k in one_chief_series(G).factor_orders())


def is_p_supersoluble(G: FiniteGroup, p: int) -> bool:
    return all(k % p or k == p for k in one_chief_series(G).factor_orders())


def _core_steps(p: int) -> dict:
    """The climb steps of O_{p'} (|M/Z| prime to p) and of O_p (|M/Z| a power of p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return {"p'": lambda Z, M: (M.order // Z.order) % p != 0,
            "p": lambda Z, M: p_part(M.order // Z.order, p) == M.order // Z.order}


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G): the largest normal p-subgroup, climbed through p-steps."""
    return climb(G, G.trivial_subgroup(), _core_steps(p)["p"])


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    out = G.trivial_subgroup()
    for p in factorize(G.n):
        out = _join_normal(G, out, p_core(G, p))
    return out


def socle(G: FiniteGroup) -> Subgroup:
    """The join of the minimal normal subgroups; trivial for the trivial group."""
    out = G.trivial_subgroup()
    for M in minimal_normal_overgroups(G, out):
        out = _join_normal(G, out, M)
    return out


@memo
def hypercenter(G: FiniteGroup) -> Subgroup:
    """Top of the ascending central series, climbed through central chief
    steps: [m, g] lies in Z for every generator m of M and g of G."""
    gens = G.reduced_generator_ids()
    return climb(G, G.trivial_subgroup(), lambda Z, M: all(
        G.commutator(m, g) in Z.ids for m in M.gens for g in gens))


def is_nilpotent(G: FiniteGroup) -> bool:
    return hypercenter(G).is_full


class UpperPSeries(Record):
    """Strict terms of 1 <= O_{p'} <= O_{p',p} <= ... up to G.

    `kinds` records, per step, whether the jump was a p'-step or a p-step.
    """

    __slots__ = ("group", "p", "terms", "kinds")

    def __init__(self, group: FiniteGroup, p: int, terms: list[Subgroup], kinds: list[str]):
        self.group, self.p, self.terms, self.kinds = group, p, terms, kinds

    @property
    def p_length(self) -> int:
        return self.kinds.count("p")


def upper_p_series(G: FiniteGroup, p: int) -> UpperPSeries:
    """From each term T, a p'-climb and then a p-climb; by correspondence
    they end at the preimages of O_{p'}(G/T) and of O_p over that."""
    steps = _core_steps(p)
    terms, kinds = [G.trivial_subgroup()], []
    while not terms[-1].is_full:
        grown = len(terms)
        for kind, step in steps.items():
            top = climb(G, terms[-1], step)
            if top is not terms[-1]:
                terms.append(top)
                kinds.append(kind)
        if len(terms) == grown:
            raise ValueError(f"group is not {p}-soluble; upper {p}-series stalls")
    return UpperPSeries(G, p, terms, kinds)


def p_length(G: FiniteGroup, p: int) -> int:
    return upper_p_series(G, p).p_length
