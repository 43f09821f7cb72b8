"""Normal subgroup lattice, chief series, and the predicates built on them.

Each normal subgroup is one handle and one record, a node of `node_table`,
made when a walk first reaches it.  The record keeps the node's minimal
normal overgroups (its chief steps, found from the principal normal
closures, one per conjugacy class), the successor moves of every series walk
in the package, the walk over the whole lattice included; walks find it by
id-set, not by hashing a handle.  For normal N and P the join N v P is the
product set NP, of order |N||P|/|N n P|, so the order of every candidate
step is read off an id-set intersection before any product set is built, and
the steps are found smallest first.  The characteristic subgroups read off
the lattice (the hypercentre, the p-core, the terms of the upper p-series)
are climbs along those chief steps (`climb`), with no quotient group formed.
"""

from __future__ import annotations

from .arith import factorize, is_prime, p_part
from .groups import FiniteGroup, Record, Subgroup, closure_ids, is_normal, memo, product_ids
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
            P = node_of(G, Subgroup(G, H, gens)).handle if H else N
        known[c] = P
        closing_to.setdefault(P, set()).update(members[c])
    return sorted(closing_to, key=lambda S: node_of(G, S).key)


class Node:
    """A normal subgroup's sort key (order, sorted ids), its one handle, its chief
    steps (None until expanded) and, by step id-set, `factor_condition`'s data."""

    __slots__ = ("key", "handle", "steps", "edges")

    def __init__(self, key: tuple, handle: Subgroup):
        self.key, self.handle, self.steps, self.edges = key, handle, None, {}


def node_table(G: FiniteGroup) -> dict[frozenset, Node]:
    """Each normal subgroup reached so far, by id-set, as its `Node`.  It starts
    with the trivial and full ones, each alone in its order, so keyed by order."""
    if "node_table" not in G.memo:
        G.memo["node_table"] = {
            S.ids: Node((S.order,), S) for S in (G.trivial_subgroup(), G.full_subgroup())}
    return G.memo["node_table"]


def node_of(G: FiniteGroup, S: Subgroup) -> Node:
    """S's record, by its id-set.  A subgroup no walk has reached becomes a node,
    S its handle, if normal; any other raises ValueError, interning nothing."""
    try:
        return G.memo["node_table"][S.ids]
    except KeyError:
        nodes = node_table(G)
    if S.ids not in nodes:
        if not is_normal(G, S):
            raise ValueError(f"the subgroup of order {S.order} is not normal")
        nodes[S.ids] = Node((len(S.ids), tuple(sorted(S.ids))), S)
    return nodes[S.ids]


def _join_normal(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    # Both normal, so the product set is already the join.
    if A.ids <= B.ids:
        return B
    if B.ids <= A.ids:
        return A
    return node_of(G, Subgroup(G, product_ids(G, A.ids, B.ids), A.gens + B.gens)).handle


def minimal_normal_overgroups(G: FiniteGroup, N: Subgroup) -> tuple[Subgroup, ...]:
    """Normal subgroups M > N with nothing normal strictly between, ordered
    by (order, sorted ids), as nodes, kept on N's record (`node_of`) and
    handed out uncopied, since every series walk only reads them.

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
    node = node_of(G, N)
    if node.steps is not None:
        return node.steps
    N, n = node.handle, len(N.ids)
    out: list[Subgroup] = []
    for P in sorted((P for P in principal_normal_closures(G) if not P.ids <= N.ids),
                    key=lambda P: n * P.order // len(N.ids & P.ids)):
        if any(P.ids <= S.ids for S in out):
            continue
        J = _join_normal(G, N, P)
        if not any(S.ids <= J.ids for S in out):
            out.append(J)
    node.steps = tuple(sorted(out, key=lambda S: node_of(G, S).key))
    return node.steps


@memo
def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The full normal subgroup lattice, read off the node table once
    every node has been expanded: each node is normal and the trivial one
    is among them, and every normal subgroup lies on some chief series."""
    nodes = node_table(G)
    while unexpanded := [node.handle for node in nodes.values() if node.steps is None]:
        for N in unexpanded:
            minimal_normal_overgroups(G, N)
    return [node.handle for node in sorted(nodes.values(), key=lambda node: node.key)]


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
