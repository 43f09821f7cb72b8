import functools

import pytest

from gpi import series
from gpi.arith import prime_set
from gpi.catalog import build_group, from_description, group_names
from gpi.groups import PermGroup, Subgroup, closure_ids, is_normal
from gpi.perm import Perm
from gpi.series import (
    ChiefSeries,
    _core_steps,
    climb,
    fitting_subgroup,
    hypercenter,
    is_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
    minimal_normal_overgroups,
    normal_subgroups,
    one_chief_series,
    p_core,
    p_length,
    principal_normal_closures,
    socle,
    upper_p_series,
)

from affine import affine_description, affine_group
from oracles import (
    brute_closure,
    brute_conjugacy_classes,
    brute_hypercenter,
    brute_normal_lattice,
    brute_normal_subgroups,
    join_all_minimal_normal_overgroups,
    principal_normal_closures_from_scratch,
)

cyc = Perm.from_cycles


def test_principal_closures_s4():
    G = build_group("S4")
    prins = principal_normal_closures(G)
    assert [P.order for P in prins] == [4, 12, 24]


@pytest.mark.parametrize(
    "name,count",
    [("S4", 4), ("D8", 6), ("Q8", 6), ("A5", 2), ("C12", 6), ("S6", 3)],
)
def test_normal_lattice_matches_brute(name, count):
    G = build_group(name)
    lat = normal_subgroups(G)
    assert len(lat) == count
    assert {N.ids for N in lat} == brute_normal_subgroups(G)


def test_minimal_normals():
    for name, orders in [("S4", [4]), ("D8", [2]), ("A5", [60]), ("C2^2", [2, 2, 2])]:
        G = build_group(name)
        assert [M.order for M in minimal_normal_overgroups(G, G.trivial_subgroup())] == orders


def test_minimal_normal_overgroups_step():
    G = build_group("S4")
    v4 = next(N for N in normal_subgroups(G) if N.order == 4)
    steps = minimal_normal_overgroups(G, v4)
    assert [M.order for M in steps] == [12]
    a4 = steps[0]
    assert [M.order for M in minimal_normal_overgroups(G, a4)] == [24]


def test_one_chief_series_shapes():
    cases = {
        "S4": [1, 4, 12, 24],
        "A5": [1, 60],
        "D8": [1, 2, 4, 8],
        "SL(2,3)": [1, 2, 8, 24],
        "C12": [1, 2, 4, 12],
        "S6": [1, 360, 720],
    }
    for name, orders in cases.items():
        G = build_group(name)
        cs = one_chief_series(G)
        cs.validate()
        assert [t.order for t in cs.terms] == orders, name


def test_validate_rejects_bad_series():
    G = build_group("S4")
    cs = one_chief_series(G)
    broken = ChiefSeries(G, [cs.terms[0], cs.terms[2], cs.terms[3]])
    with pytest.raises(ValueError, match="chief factor"):
        broken.validate()
    with pytest.raises(ValueError):
        ChiefSeries(G, cs.terms[:-1]).validate()
    t = G.generated([G.id_of_perm(cyc(4, [(0, 1)]))])
    with pytest.raises(ValueError):
        ChiefSeries(G, [G.trivial_subgroup(), t, G.full_subgroup()]).validate()


def test_trivial_group_series():
    triv, _ = build_group("C2").trivial_subgroup().as_group()
    cs = one_chief_series(triv)
    cs.validate()
    assert len(cs) == 0 and cs.factor_orders() == []


@pytest.mark.parametrize(
    "name,soluble,supersoluble,nilpotent",
    [
        ("S4", True, False, False),
        ("S3", True, True, False),
        ("A4", True, False, False),
        ("A5", False, False, False),
        ("D8", True, True, True),
        ("Q16", True, True, True),
        ("C12", True, True, True),
        ("SL(2,3)", True, False, False),
        ("S6", False, False, False),
        ("5^4:3", True, False, False),
    ],
)
def test_solubility_ladder(name, soluble, supersoluble, nilpotent):
    G = build_group(name)
    assert is_soluble(G) == soluble
    assert is_supersoluble(G) == supersoluble
    assert is_nilpotent(G) == nilpotent


def test_p_flavoured_predicates():
    s4 = build_group("S4")
    assert is_p_soluble(s4, 2) and is_p_soluble(s4, 3)
    assert not is_p_supersoluble(s4, 2) and is_p_supersoluble(s4, 3)
    a5 = build_group("A5")
    assert not is_p_soluble(a5, 2) and not is_p_soluble(a5, 5)
    assert is_p_soluble(a5, 7)  # vacuous: 7 does not divide 60
    big = build_group("5^4:3")
    assert is_p_soluble(big, 5) and not is_p_supersoluble(big, 5)
    assert is_p_supersoluble(big, 3)


def o_p_prime(G, p):
    """O_{p'}(G): the climb through chief factors of order prime to p."""
    return climb(G, G.trivial_subgroup(), _core_steps(p)["p'"])


def test_cores():
    s4 = build_group("S4")
    assert p_core(s4, 2).order == 4
    assert p_core(s4, 3).is_trivial
    assert o_p_prime(s4, 2).is_trivial
    assert o_p_prime(s4, 3).order == 4
    sl = build_group("SL(2,3)")
    assert p_core(sl, 2).order == 8
    assert o_p_prime(sl, 2).is_trivial
    d8 = build_group("D8")
    assert p_core(d8, 2).is_full
    with pytest.raises(ValueError):
        p_core(s4, 4)


def test_fitting_and_socle():
    s4 = build_group("S4")
    assert fitting_subgroup(s4).order == 4
    assert socle(s4).order == 4
    assert fitting_subgroup(s4) == socle(s4)
    a5 = build_group("A5")
    assert fitting_subgroup(a5).is_trivial
    assert socle(a5).is_full
    c12 = build_group("C12")
    assert fitting_subgroup(c12).is_full
    assert socle(c12).order == 6  # C2 x C3
    big = build_group("5^4:3")
    assert fitting_subgroup(big).order == 625
    assert socle(big).order == 625


def test_hypercenter():
    assert hypercenter(build_group("D8")).is_full
    assert hypercenter(build_group("S4")).is_trivial
    sl = build_group("SL(2,3)")
    assert hypercenter(sl).order == 2
    assert hypercenter(build_group("5^4:3")).is_trivial
    d16 = build_group("D16")
    assert hypercenter(d16).is_full  # 2-groups are nilpotent


def test_p_nilpotency():
    # G is p-nilpotent exactly when O_{p'}(G) has index |G|_p.
    def complement_index(name, p):
        G = build_group(name)
        return G.n // o_p_prime(G, p).order

    assert complement_index("S3", 2) == 2  # O_{2'} = C3
    assert complement_index("S3", 3) == 6  # not 3-nilpotent
    assert complement_index("SL(2,3)", 2) == 24  # not 2-nilpotent
    assert complement_index("SL(2,3)", 3) == 3  # O_{3'} = Q8
    assert complement_index("D8", 2) == 8
    assert complement_index("C12", 2) == 4 and complement_index("C12", 3) == 3


def test_upper_p_series_and_length():
    s4 = build_group("S4")
    ser = upper_p_series(s4, 2)
    assert [t.order for t in ser.terms] == [1, 4, 12, 24]
    assert ser.kinds == ["p", "p'", "p"]
    assert p_length(s4, 2) == 2
    assert p_length(s4, 3) == 1
    sl = build_group("SL(2,3)")
    assert p_length(sl, 2) == 1
    assert p_length(build_group("5^4:3"), 5) == 1
    assert p_length(build_group("D8"), 2) == 1
    with pytest.raises(ValueError, match="stalls"):
        upper_p_series(build_group("A5"), 2)
    assert p_length(build_group("C12"), 7) == 0  # 7 does not divide 12


def test_chief_factors_multiset_is_series_independent():
    # Factor orders from the deterministic series match the lattice structure.
    big = build_group("5^4:3")
    assert sorted(one_chief_series(big).factor_orders()) == [3, 25, 25]
    s6 = build_group("S6")
    assert sorted(one_chief_series(s6).factor_orders()) == [2, 360]


def _lattice_climb(lattice, T, p, kind):
    """The largest lattice member N >= T with |N : T| prime to p (kind
    "p'") or a power of p (kind "p"): by correspondence, the preimage of
    O_{p'}(G/T) or O_p(G/T).  Also checks that it contains every other."""

    def fits(k):
        if kind == "p'":
            return k % p != 0
        while k % p == 0:
            k //= p
        return k == 1

    members = [N for N in lattice if T <= N and fits(len(N) // len(T))]
    top = max(members, key=len)
    assert all(N <= top for N in members)
    return top


def _lattice_upper_p_series(G, lattice, p):
    """Terms and kinds of the upper p-series from the lattice alone, or
    None when two climbs in a row stay put."""
    terms, kinds = [frozenset((0,))], []
    want, misses = "p'", 0
    while len(terms[-1]) < G.n:
        top = _lattice_climb(lattice, terms[-1], p, want)
        if top == terms[-1]:
            misses += 1
            if misses == 2:
                return None
        else:
            misses = 0
            terms.append(top)
            kinds.append(want)
        want = "p" if want == "p'" else "p'"
    return terms, kinds


@functools.cache
def _group(name):
    """One shared handle per name: catalogue groups, the affine groups, S7."""
    if name == "S7":
        return from_description({"type": "perm", "degree": 7,
                                 "generators": [[list(range(7))], [[0, 1]]]})
    return affine_group(name) if name.startswith(("ASL", "AGL")) else build_group(name)


@functools.cache
def _brute_lattice(name):
    return brute_normal_lattice(_group(name))


@pytest.mark.parametrize("name", [*group_names(), "ASL(2,3)", "AGL(2,3)", "AGL(2,5)", "S7"])
def test_chief_steps_match_the_join_all_reference(name):
    # The steps out of every normal N, found smallest join first, against
    # the earlier construction that builds every join N v P: the same
    # id-sets in the same order, each with the same generators.  Both are
    # also N's covers in the brute normal lattice.
    G = _group(name)
    lattice = _brute_lattice(name)
    normals = normal_subgroups(G)
    assert {N.ids for N in normals} == lattice
    for N in normals:
        steps = minimal_normal_overgroups(G, N)
        want = join_all_minimal_normal_overgroups(G, N)
        assert [(M.ids, M.gens) for M in steps] == [(M.ids, M.gens) for M in want]
        over = [M for M in lattice if N.ids < M]
        covers = [M for M in over if not any(W < M for W in over)]
        assert [M.ids for M in steps] == sorted(covers, key=lambda M: (len(M), sorted(M)))


@pytest.mark.parametrize("name", [*group_names(), "ASL(2,3)", "AGL(2,3)", "AGL(2,5)"])
def test_principal_closures_match_the_from_scratch_reference(name):
    # Closures started from power closures and stopped by Lagrange give the
    # id-sets, in the same order, of each class representative's closure
    # grown from nothing; and the generators each one carries generate it,
    # whether it was grown or recognised as a known closure by a stop.
    # Up to order 200 both are also the spans of the brute classes.
    G = _group(name)
    got = principal_normal_closures(G)
    assert [P.ids for P in got] == [P.ids for P in principal_normal_closures_from_scratch(G)]
    for P in got:
        assert closure_ids(G, P.gens) == P.ids
        assert is_normal(G, P)
    if G.n <= 200:
        spans = {brute_closure(G, cls) for cls in brute_conjugacy_classes(G) if 0 not in cls}
        assert [P.ids for P in got] == sorted(spans, key=lambda P: (len(P), sorted(P)))


def test_principal_closures_edge_cases():
    assert principal_normal_closures(PermGroup([], degree=1)) == []
    C5 = build_group("C5", fresh=True)
    assert [P.ids for P in principal_normal_closures(C5)] == [C5.full_subgroup().ids]


@pytest.mark.parametrize("name,most", [("S7", 12_000), ("5^4:3", 7_000)])
def test_principal_closures_take_few_products(name, most, monkeypatch):
    # Products counted once the class BFS is done; growing each closure
    # from nothing took 60,052 on S7 and 14,648 on 5^4:3.
    G = build_group(name, fresh=True) if name != "S7" else from_description(
        {"type": "perm", "degree": 7, "generators": [[list(range(7))], [[0, 1]]]})
    G.conjugacy_class_reps()
    calls = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or mul(a, b))
    principal_normal_closures(G)
    assert len(calls) <= most


def test_lattice_takes_few_products_after_the_closures(monkeypatch):
    # Each product set is read off a coset labelling, and the labellings
    # walk the translation tables the class BFS already built: on AGL(2,5)
    # the lattice once took n = 12,000 products per distinct right subgroup,
    # 24,000 in all.
    G = from_description(affine_description(5, True))
    principal_normal_closures(G)
    calls = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or mul(a, b))
    assert len(normal_subgroups(G)) == 7
    assert len(calls) <= 100


def test_lattice_builds_few_product_sets(monkeypatch):
    # On 5^4:3 the join-all construction forms 650 product sets to find
    # the 29 normal subgroups; walking the joins by their order forms 26.
    calls = []
    product_ids = series.product_ids
    monkeypatch.setattr(series, "product_ids",
                        lambda G, left, right: calls.append(1) or product_ids(G, left, right))
    G = build_group("5^4:3", fresh=True)
    assert len(normal_subgroups(G)) == 29
    assert len(calls) == 26


@pytest.mark.parametrize("name", [*group_names(), "ASL(2,3)", "AGL(2,3)"])
def test_climbs_match_the_brute_lattice(name):
    # Hypercentre, cores and upper p-series against references built from
    # the brute normal lattice (and the brute centre climb up to order
    # 720), at every prime of |G| and at 7, which divides none.
    G = _group(name)
    lattice = _brute_lattice(name)
    trivial = frozenset((0,))
    if G.n <= 720:
        assert hypercenter(G).ids == brute_hypercenter(G)
    for p in sorted({*prime_set(G.n), 7}):
        assert p_core(G, p).ids == _lattice_climb(lattice, trivial, p, "p"), p
        assert o_p_prime(G, p).ids == _lattice_climb(lattice, trivial, p, "p'"), p
        want = _lattice_upper_p_series(G, lattice, p)
        if want is None:
            with pytest.raises(ValueError, match="stalls"):
                upper_p_series(G, p)
        else:
            ser = upper_p_series(G, p)
            assert ([t.ids for t in ser.terms], ser.kinds) == want, p
