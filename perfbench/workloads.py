"""The three workloads: set-up, one round of operations, and the checks.

Every check compares the program's output with facts the benchmark derives on
its own (closed formulas, its own permutation arithmetic, its own prime
factorisation), never with a stored copy of earlier output.  The verdict
digest is reported beside the checks and gates nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
from collections import Counter

THEOREMS = ("t11", "t12", "t13", "t14", "cls", "l28", "l214")

# The catalogue's corpus groups with their orders, as group theory gives them.
CORPUS_ORDERS = {
    "S3": 6, "S4": 24, "S5": 120, "S6": 720, "A4": 12, "A5": 60, "C12": 12,
    "C2^4": 16, "C3^2": 9, "D8": 8, "D16": 16, "Q8": 8, "Q16": 16, "SD16": 16,
    "M16": 16, "SL(2,3)": 24, "GL(2,3)": 48, "SL(2,5)": 120, "5^4:3": 1875,
}


# -- the benchmark's own arithmetic ---------------------------------------------


def primes_of(n: int) -> tuple[int, ...]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_pi_number(n: int, pi) -> bool:
    return set(primes_of(n)) <= set(pi)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def euler_phi(n: int) -> int:
    out = n
    for p in primes_of(n):
        out = out // p * (p - 1)
    return out


def factor_problems(c, where: str) -> list[str]:
    """A factor check must carry the primes of its meet and pass exactly when
    its index is a pi-number."""
    out = []
    pi = primes_of(c.meet_order // c.k_order)
    if tuple(c.pi) != pi:
        out.append(f"{where}: factor {c.m_order}/{c.k_order} has pi {c.pi}, want {pi}")
    if c.passed != is_pi_number(c.index, pi):
        out.append(f"{where}: factor {c.m_order}/{c.k_order} index {c.index} "
                   f"pi {pi} marked passed={c.passed}")
    return out


def verdict_problems(v, want: bool, series: list[int], where: str) -> list[str]:
    if v.satisfied != want:
        return [f"{where}: satisfied={v.satisfied}, want {want}"]
    out = []
    if want:
        orders = [t.order for t in v.terms]
        if orders != series:
            out.append(f"{where}: witness series {orders}, want {series}")
        if len(v.checks) != len(series) - 1:
            out.append(f"{where}: {len(v.checks)} checks for {len(series) - 1} factors")
        for c in v.checks:
            out += factor_problems(c, where)
            if not c.passed:
                out.append(f"{where}: witness holds a failing check")
    else:
        checks = [c for _, cs in v.blocked for c in cs]
        for c in checks:
            out += factor_problems(c, where)
        if all(c.passed for c in checks):
            out.append(f"{where}: refusal without a failing check")
    return out


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# -- shared pieces ----------------------------------------------------------------


class Round:
    """What one round produced.

    `latencies` are the round's verdicts and `parts` the pieces its sweep is
    made of, each as a (start, end) pair on the workload's clock and in an
    order every round of a run repeats, so that a run can take each piece's
    median across its rounds.  `whole`, when set, is the span of the whole
    sweep; the time it has beyond the parts is one more piece.
    """

    def __init__(self, ops: int, latencies: list, parts: list, output, whole=None):
        self.ops = ops
        self.latencies = latencies
        self.parts = parts
        self.output = output
        self.whole = whole

    def piece_seconds(self, seconds) -> list[float]:
        """The sweep's pieces in seconds, as `seconds(start, end)` gives them."""
        out = [seconds(*s) for s in self.parts]
        if self.whole is not None:
            out.append(seconds(*self.whole) - sum(out))
        return out

    def latency_seconds(self, seconds) -> list[float]:
        return [seconds(*s) for s in self.latencies]


def population(gpi, G, two_maximal: bool) -> list:
    """Every cyclic subgroup, each Sylow subgroup and its 2-minimal family
    (and its 2-maximal family when asked), deduplicated by id-set."""
    pop = {}
    for k in sorted({G.element_order(a) for a in range(G.n)}):
        for H in gpi.cyclic_subgroups_of_order(G, k):
            pop.setdefault(H.ids, H)
    for p in gpi.prime_set(G.n):
        P = gpi.sylow_subgroup(G, p)
        family = gpi.two_minimal_subgroups(P, p)
        if two_maximal:
            family = family + gpi.two_maximal_subgroups_of_p_group(P)
        for H in [P] + family:
            pop.setdefault(H.ids, H)
    return list(pop.values())


class VerdictWorkload:
    """Decide each member of a subgroup population once, on a fresh group.

    `clock` times the operations; the run converts its spans to seconds.
    """

    name = ""
    two_maximal = False
    rounds = 3  # the fewest untraced rounds of a run

    def __init__(self, clock):
        self.clock = clock

    def build(self, gpi):
        raise NotImplementedError

    def setup(self, gpi, seed: int) -> dict:
        G = self.build(gpi)
        G.materialize()
        pop = population(gpi, G, self.two_maximal)
        sys.modules["gpi.series"].principal_normal_closures(G)
        random.Random(seed).shuffle(pop)
        return {"gpi": gpi, "group": G, "population": pop}

    def sweep(self, state) -> Round:
        decide = state["gpi"].satisfies_partial_pi
        G = state["group"]
        clock = self.clock
        lat, verdicts = [], []
        for H in state["population"]:
            t = clock()
            v = decide(G, H)
            lat.append((t, clock()))
            verdicts.append(v)
        return Round(len(verdicts), lat, lat, verdicts)

    def retime(self, state, rnd: Round) -> None:
        """The sweep already timed every verdict."""

    def digest(self, rnd: Round) -> str:
        return digest(json.dumps(v.to_json(), sort_keys=True) for v in rnd.output)


class Verdicts1875(VerdictWorkload):
    """5^4:3 on the semidirect/Cayley backend: witness-heavy.

    The population is 1 + 156 + 625 + 1 + 806 subgroups: the trivial one, the
    F5-lines of 5^4, the order-3 subgroups (C3 acts fixed-point-freely, so
    there are 5^4 of them), the Sylow 5-subgroup, and the [4 choose 2]_5
    planes (the 2-maximal family of the Sylow 5-subgroup is the same set, so
    it is not built twice).  Exactly the lines are refused: C3 moves every
    line, so each blocked factor has normalizer index 3, no 5-number.
    """

    name = "verdicts-1875"
    series = [1, 25, 625, 1875]

    def build(self, gpi):
        return gpi.build_group("5^4:3")

    def check(self, state, rnd: Round) -> list[str]:
        q = 5
        want = {1: 1, q: (q**4 - 1) // (q - 1), 3: q**4,
                q * q: gaussian_binomial(4, 2, q), q**4: 1}
        pop = state["population"]
        out = []
        sizes = Counter(H.order for H in pop)
        if dict(sizes) != want or len({H.ids for H in pop}) != sum(want.values()):
            out.append(f"population by order {dict(sizes)}, want {want} all distinct")
        if len(rnd.output) != len(pop):
            out.append(f"{len(rnd.output)} verdicts for {len(pop)} subgroups")
        for H, v in zip(pop, rnd.output):
            where = f"order-{H.order} subgroup"
            if v.subgroup is not H:
                out.append(f"{where}: verdict for another subgroup")
                continue
            wrong = verdict_problems(v, H.order != q, self.series, where)
            out += wrong
            if not wrong and not v.satisfied:
                bad = {(c.index, tuple(c.pi)) for _, cs in v.blocked for c in cs if not c.passed}
                if bad != {(3, (q,))}:
                    out.append(f"{where}: blocked by {sorted(bad)}, want index 3 over {{5}}")
        return out


class VerdictsS7(VerdictWorkload):
    """S7 on the permutation backend: refusal-heavy, one chief series.

    The chief series 1 < A7 < S7 is unique and the top factor always passes,
    so H is satisfied exactly when K = H meet A7 is trivial or
    |S7 : N(K)| is a pi(K)-number.  For cyclic K = <z>,
    |N(K)| = phi(o(z)) * prod i^m_i * m_i! over the cycle type of z; for the
    others the normalizer is scanned over all 5040 permutation tuples.
    """

    name = "verdicts-s7"
    two_maximal = True
    # 446 members of order 4 cost nearly the same and make up the top of the
    # latency distribution, so p99 lies in their upper tail: with each
    # verdict's median over three rounds it followed the per-verdict noise.
    rounds = 5
    degree = 7
    series = [1, 2520, 5040]

    def __init__(self, clock):
        super().__init__(clock)
        self._expected: dict[frozenset, bool] = {}
        self._cyclic: set[frozenset] | None = None
        self._all = list(itertools.permutations(range(self.degree)))

    def build(self, gpi):
        n = self.degree
        return gpi.from_description(
            {"type": "perm", "degree": n, "name": f"S{n}",
             "generators": [[list(range(n))], [[0, 1]]]}
        )

    # Permutations as image tuples; a*b applies a first.
    @staticmethod
    def _mul(a, b):
        return tuple(b[x] for x in a)

    @staticmethod
    def _inv(a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    @staticmethod
    def _cycle_type(a) -> list[int]:
        seen, out = set(), []
        for i in range(len(a)):
            if i in seen:
                continue
            k, j = 0, i
            while j not in seen:
                seen.add(j)
                j = a[j]
                k += 1
            out.append(k)
        return out

    def _even(self, a) -> bool:
        return sum(k - 1 for k in self._cycle_type(a)) % 2 == 0

    def _order(self, a) -> int:
        return math.lcm(*self._cycle_type(a))

    def _closure(self, gens) -> frozenset:
        ident = tuple(range(self.degree))
        out, frontier = {ident}, [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self._mul(x, g)
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(out)

    def _gens(self, S: frozenset) -> list:
        gens, span = [], frozenset((tuple(range(self.degree)),))
        for x in sorted(S):
            if x not in span:
                gens.append(x)
                span = self._closure(gens)
        return gens

    def _subgroups_of_order(self, P: frozenset, k: int) -> set:
        # Called for k in {1, p^2} only; such groups have two generators.
        found = set()
        els = sorted(P)
        for a, b in itertools.combinations_with_replacement(els, 2):
            S = self._closure([a, b])
            if len(S) == k:
                found.add(S)
        return found

    def _expect(self, S: frozenset) -> bool:
        got = self._expected.get(S)
        if got is None:
            K = frozenset(x for x in S if self._even(x))
            if len(K) == 1:
                got = True
            else:
                z = max(K, key=self._order)
                if self._order(z) == len(K):
                    ct = Counter(self._cycle_type(z))
                    norm = euler_phi(len(K)) * math.prod(
                        i**m * math.factorial(m) for i, m in ct.items())
                else:
                    gens = self._gens(K)
                    norm = sum(
                        1 for g in self._all
                        if all(self._mul(self._mul(self._inv(g), k), g) in K for k in gens)
                    )
                index = math.factorial(self.degree) // norm
                got = is_pi_number(index, primes_of(len(K)))
            self._expected[S] = got
        return got

    def _cyclic_subgroups(self) -> set:
        if self._cyclic is None:
            self._cyclic = {self._closure([a]) for a in self._all}
        return self._cyclic

    def _families(self, P: frozenset, p: int) -> set:
        """The 2-minimal and 2-maximal families of a Sylow p-subgroup, by
        the benchmark's own subgroup search."""
        if len(P) < p * p:
            return set()
        return self._subgroups_of_order(P, p * p) | self._subgroups_of_order(P, len(P) // (p * p))

    def _cyclic_count(self) -> int:
        """Cyclic subgroups of S_n by cycle type: class size / phi(order)."""
        n, total = self.degree, 0
        for ct in _partitions(n):
            m = Counter(ct)
            size = math.factorial(n) // math.prod(
                i**k * math.factorial(k) for i, k in m.items())
            total += size // euler_phi(math.lcm(*ct))
        return total

    def check(self, state, rnd: Round) -> list[str]:
        G = state["group"]
        out = []
        if G.n != math.factorial(self.degree):
            return [f"group order {G.n}, want {math.factorial(self.degree)}"]
        raw = [G.perm(a).images for a in range(G.n)]
        tsets = [frozenset(raw[a] for a in H.ids) for H in state["population"]]
        if len(self._cyclic_subgroups()) != self._cyclic_count():
            out.append("own enumeration disagrees with the cyclic subgroup count by type")
        want = set(self._cyclic_subgroups())
        for p in primes_of(G.n):
            # The Sylow subgroups are the ones the program chose; each must
            # be a group of the full p-power order.
            pk = p ** max(e for e in range(G.n.bit_length()) if G.n % p**e == 0)
            sylows = [S for S in tsets if len(S) == pk]
            if not sylows:
                out.append(f"no Sylow {p}-subgroup in the population")
            for P in sylows:
                if self._closure(self._gens(P)) != P:
                    out.append(f"Sylow {p}-subgroup of size {len(P)} is not closed")
                want.add(P)
                want |= self._families(P, p)
        if set(tsets) != want or len(tsets) != len(want):
            out.append(f"population of {len(tsets)} subgroups, want {len(want)} distinct")
        if len(rnd.output) != len(tsets):
            out.append(f"{len(rnd.output)} verdicts for {len(tsets)} subgroups")
        for H, S, v in zip(state["population"], tsets, rnd.output):
            where = f"order-{H.order} subgroup"
            if v.subgroup is not H:
                out.append(f"{where}: verdict for another subgroup")
                continue
            out += verdict_problems(v, self._expect(S), self.series, where)
        return out


def _partitions(n: int, most: int | None = None):
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


class Corpus:
    """`gpi corpus --json -` through the CLI entry point: the theorem sweep."""

    name = "corpus"
    rounds = 3

    def __init__(self, clock):
        self.clock = clock

    def setup(self, gpi, seed: int) -> dict:
        for name in gpi.corpus_names():
            gpi.build_group(name).materialize()
        decided: list = []
        reports: list[tuple[float, float]] = []
        clock = self.clock
        # Time each report at the binding run_corpus calls through, and keep
        # each verdict the checkers decide.  A repeated answer (the same
        # object) is a cache hit, not a decided verdict.
        verify = sys.modules["gpi.verify"]
        decide, report = verify.satisfies_partial_pi, verify.verify_theorem
        seen: set[int] = set()

        def keep_decided(G, H, *args, **kwargs):
            v = decide(G, H, *args, **kwargs)
            if id(v) not in seen:
                seen.add(id(v))
                decided.append((G, H, v))
            return v

        def timed_report(*args, **kwargs):
            t = clock()
            r = report(*args, **kwargs)
            reports.append((t, clock()))
            return r

        verify.satisfies_partial_pi = keep_decided
        verify.verify_theorem = timed_report
        return {"gpi": gpi, "seed": seed, "decided": decided, "reports": reports}

    def sweep(self, state) -> Round:
        buf = io.StringIO()
        t = self.clock()
        with contextlib.redirect_stdout(buf):
            rc = sys.modules["gpi.cli"].main(["corpus", "--json", "-"])
        # The sweep is its reports plus the rest: argument parsing, group
        # lookups and writing the JSON.
        return Round(len(CORPUS_ORDERS) * len(THEOREMS), [], state["reports"],
                     (rc, buf.getvalue()), whole=(t, self.clock()))

    def retime(self, state, rnd: Round) -> None:
        """Decide again, on fresh handles and in seeded order, every subgroup
        the checkers decided during the sweep, and time each verdict.

        Inside the sweep these verdicts come in blocks (80 % of them on
        `5^4:3`, within about a second), so their times there follow the
        machine's speed in that second rather than the verdicts' cost.
        """
        gpi = state["gpi"]
        fresh = {}
        for G, _, _ in state["decided"]:
            if G.name not in fresh:
                F = fresh[G.name] = gpi.build_group(G.name, fresh=True)
                F.materialize()
                sys.modules["gpi.series"].principal_normal_closures(F)
        Subgroup = sys.modules["gpi.groups"].Subgroup
        todo = [(fresh[G.name], Subgroup(fresh[G.name], H.ids), v) for G, H, v in state["decided"]]
        order = list(range(len(todo)))
        random.Random(state["seed"]).shuffle(order)
        clock = self.clock
        lat = [(0.0, 0.0)] * len(todo)
        again = [None] * len(todo)
        for i in order:
            F, H, _ = todo[i]
            t = clock()
            again[i] = gpi.satisfies_partial_pi(F, H)
            lat[i] = (t, clock())
        rnd.latencies = lat
        state["again"] = [(v.satisfied, w.satisfied) for (_, _, v), w in zip(todo, again)]

    def check(self, state, rnd: Round) -> list[str]:
        rc, text = rnd.output
        out = [] if rc == 0 else [f"gpi corpus exited {rc}"]
        # A verdict decided again on a fresh handle, in another order, agrees.
        flips = sum(a != b for a, b in state.get("again", []))
        if flips:
            out.append(f"{flips} verdicts changed when decided again on fresh handles")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return out + [f"corpus output is not JSON: {exc}"]
        reports = payload.get("reports", [])
        if payload.get("ok") is not True:
            out.append("corpus payload is not ok")
        for key in ("violations", "skipped"):
            if payload.get(key) != 0:
                out.append(f"corpus {key}: {payload.get(key)}")
        if sorted(payload.get("groups", [])) != sorted(CORPUS_ORDERS):
            out.append(f"corpus groups {payload.get('groups')}")
        pairs = Counter((r.get("group"), r.get("theorem")) for r in reports)
        want = {(g, t) for g in CORPUS_ORDERS for t in THEOREMS}
        if set(pairs) != want or any(n != 1 for n in pairs.values()):
            out.append(f"{len(reports)} reports, want one for each of {len(want)} pairs")
        for r in reports:
            where = f"{r.get('group')} {r.get('theorem')}"
            if r.get("violations") or r.get("ok") is not True:
                out.append(f"{where}: violations {r.get('violations')}")
            if any(d.get("hypothesis") and d.get("conclusion") is False
                   for d in r.get("details", [])):
                out.append(f"{where}: an instance has a true hypothesis and a false conclusion")
            if any("skipped" in d for d in r.get("details", [])):
                out.append(f"{where}: skipped")
            # Every subgroup of a p-group has the property, so every
            # applicable instance on a p-group has a true hypothesis.
            order = CORPUS_ORDERS.get(r.get("group"))
            if order and len(primes_of(order)) == 1:
                for d in r.get("details", []):
                    if d.get("applicable", True) and d.get("hypothesis") is not True:
                        out.append(f"{where}: p-group instance {d} has a false hypothesis")
        return out

    def digest(self, rnd: Round) -> str:
        reports = json.loads(rnd.output[1]).get("reports", [])
        return digest(json.dumps(r, sort_keys=True) for r in reports)


WORKLOADS = {w.name: w for w in (Corpus, Verdicts1875, VerdictsS7)}
