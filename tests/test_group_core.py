import itertools
import json
import math
import random
import sys
from collections import Counter

import pytest

from gpi import bsgs, catalog, groups
from gpi.arith import factorize
from gpi.catalog import build_group, from_description, group_names
from gpi.cli import main
from gpi.groups import (
    LimitExceeded,
    PermGroup,
    Subgroup,
    TableGroup,
    closure_ids,
    hom_from_generators,
    is_normal,
    product_ids,
    quotient,
    semidirect_product,
)
from gpi.partialpi import FactorCheck, PiRefusal, PiWitness, satisfies_partial_pi
from gpi.perm import Perm
from gpi.series import ChiefSeries, UpperPSeries, normal_subgroups, one_chief_series
from gpi.sylow import (
    all_subgroups,
    cyclic_subgroups_of_order,
    is_quaternion_free,
    maximal_subgroups_of_p_group,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)

from gpi.verify import TheoremReport

from affine import AFFINE, affine_description, affine_group
from oracles import (
    brute_center,
    brute_closure,
    brute_normalizer,
    brute_order_histogram,
    brute_span,
    brute_two_group_shape,
    generator_tables_by_products,
    hom_defect,
    left_cosets_by_scan,
)

cyc = Perm.from_cycles


def s3():
    return PermGroup([cyc(3, [(0, 1, 2)]), cyc(3, [(0, 1)])], name="S3")


def s4():
    return PermGroup([cyc(4, [(0, 1, 2, 3)]), cyc(4, [(0, 1)])], name="S4")


def d8():
    return PermGroup([cyc(4, [(0, 1, 2, 3)]), cyc(4, [(1, 3)])], name="D8")


def q8():
    i = cyc(8, [(0, 1, 2, 3), (4, 7, 5, 6)])
    j = cyc(8, [(0, 4, 2, 5), (1, 6, 3, 7)])
    return PermGroup([i, j], name="Q8")


def sd16():
    r = cyc(8, [(0, 1, 2, 3, 4, 5, 6, 7)])
    s = cyc(8, [(1, 3), (2, 6), (5, 7)])
    return PermGroup([r, s], name="SD16")


def m16():
    r = cyc(8, [(0, 1, 2, 3, 4, 5, 6, 7)])
    s = cyc(8, [(1, 5), (3, 7)])
    return PermGroup([r, s], name="M16")


def _s7():
    return from_description({"type": "perm", "degree": 7,
                             "generators": [[list(range(7))], [[0, 1]]]})


def cn_table(m):
    return TableGroup(m, lambda a, b: (a + b) % m, lambda a: (-a) % m, gens=[1])


# The dicyclic group of order 16 on pairs (k, e) standing for a^k b^e, the
# pairs numbered with e major: the reference for the catalogue's Q16.
Q16_PAIRS = sorted(((k, e) for e in (0, 1) for k in range(8)), key=lambda t: (t[1], t[0]))


def q16_pair_mul(x, y):
    k1, e1 = x
    k2, e2 = y
    if e1 == 0:
        return ((k1 + k2) % 8, e2)
    if e2 == 0:
        return ((k1 - k2) % 8, 1)
    return ((k1 - k2 + 4) % 8, 0)


def q16_pair_inv(x):
    k, e = x
    return ((-k) % 8, 0) if e == 0 else ((k + 4) % 8, 1)


def dicyclic16():
    pairs, idx = Q16_PAIRS, {x: i for i, x in enumerate(Q16_PAIRS)}
    return TableGroup(16, lambda a, b: idx[q16_pair_mul(pairs[a], pairs[b])],
                      lambda a: idx[q16_pair_inv(pairs[a])],
                      gens=[idx[(1, 0)], idx[(0, 1)]], name="Q16")


def test_catalogue_q16_matches_the_pair_formula():
    G = build_group("Q16").materialize()
    idx = {x: i for i, x in enumerate(Q16_PAIRS)}
    for a, x in enumerate(Q16_PAIRS):
        assert G.inv(a) == idx[q16_pair_inv(x)]
        assert G.label(a) == f"a{x[0]}" + ("b" if x[1] else "")
        for b, y in enumerate(Q16_PAIRS):
            assert G.mul(a, b) == idx[q16_pair_mul(x, y)]
    assert G.generator_ids == [idx[(1, 0)], idx[(0, 1)]] == [1, 8]


# F5^4 on 4-tuples of digits, numbered in `itertools.product` order, with
# the sum looked up through a dict: the reference for the table behind the
# catalogue's 5^4:3.
F54_VECTORS = list(itertools.product(range(5), repeat=4))
F54_IDS = {v: i for i, v in enumerate(F54_VECTORS)}


def f54_add(a, b):
    v, w = F54_VECTORS[a], F54_VECTORS[b]
    return F54_IDS[tuple((x + y) % 5 for x, y in zip(v, w))]


def f54_neg(a):
    return F54_IDS[tuple(-x % 5 for x in F54_VECTORS[a])]


def test_catalogue_5_4_3_matches_the_vector_formula():
    G = build_group("5^4:3").materialize()
    # The normal part has the ids 3a, the pairs (a, identity) of 5^4 x| C3.
    for a in range(625):
        row = [G.mul(3 * a, 3 * b) for b in range(625)]
        assert row == [3 * f54_add(a, b) for b in range(625)], a
    idx = F54_IDS
    units = [idx[(1, 0, 0, 0)], idx[(0, 1, 0, 0)], idx[(0, 0, 1, 0)], idx[(0, 0, 0, 1)]]
    N = TableGroup(625, f54_add, f54_neg, gens=units, label_fn=lambda a: str(F54_VECTORS[a]))
    C3 = TableGroup(3, lambda a, b: (a + b) % 3, lambda a: -a % 3, gens=[1],
                    label_fn=("e", "t", "t2").__getitem__)
    action = [[idx[(0, 1, 0, 0)], idx[(4, 4, 0, 0)], idx[(0, 0, 0, 1)], idx[(0, 0, 4, 4)]]]
    ref = semidirect_product(N, C3, action)
    assert G.generator_ids == ref.generator_ids == [375, 75, 15, 3, 1]
    for x in range(G.n):
        assert G.inv(x) == ref.inv(x), x
        assert G.label(x) == ref.label(x), x
        assert all(G.mul(x, g) == ref.mul(x, g) for g in ref.generator_ids), x


@pytest.mark.parametrize(
    "build,expect",
    [
        (s3, 6),
        (s4, 24),
        (d8, 8),
        (q8, 8),
        (sd16, 16),
        (m16, 16),
        (lambda: PermGroup([cyc(12, [tuple(range(12))])]), 12),
        (lambda: PermGroup([cyc(4, [(0, 1, 2)]), cyc(4, [(0, 1), (2, 3)])]), 12),
        (lambda: PermGroup([], degree=3), 1),
    ],
)
def test_order_matches_enumeration(build, expect):
    G = build()
    assert G.order() == expect
    assert G.n == expect  # _build cross-checks the chain against BFS


def test_mul_inv_match_permutation_arithmetic():
    G = s4().materialize()
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randrange(G.n), rng.randrange(G.n)
        assert G.perm(G.mul(a, b)) == G.perm(a) * G.perm(b)
        assert G.perm(G.inv(a)) == G.perm(a).inverse()
    assert G.mul(0, 5) == 5 and G.inv(0) == 0
    p = G.perm(7)
    assert G.id_of_perm(p) == 7
    assert G.perm(7)(0) == p(0)
    with pytest.raises(ValueError):
        G.id_of_perm(Perm.identity(5))


def test_mul_inv_at_degrees_one_and_two():
    for degree in (1, 2):
        triv = PermGroup([], degree=degree)
        assert triv.n == 1 and triv.mul(0, 0) == 0 and triv.inv(0) == 0
        assert triv.perm(0) == Perm.identity(degree)
    G = PermGroup([cyc(2, [(0, 1)])])
    t = G.id_of_perm(cyc(2, [(0, 1)]))
    assert G.n == 2 and G.mul(t, t) == 0 and G.mul(0, t) == G.mul(t, 0) == G.inv(t) == t


def _dihedral(m):
    """The symmetries of a regular m-gon, on its m corners."""
    return PermGroup([cyc(m, [tuple(range(m))]), Perm([(-i) % m for i in range(m)])])


@pytest.mark.parametrize("m", [256, 300])
def test_bytes_and_tuple_elements_match_permutation_arithmetic(m):
    # Degree 256 is the widest a handle keeps as bytes (`translate` reads
    # points as byte values); degree 300 keeps tuples.  Both hand out ids
    # and Perms.
    G = _dihedral(m).materialize()
    assert G.n == 2 * m
    assert type(G._els[0]) is (bytes if m == 256 else tuple)
    rng = random.Random(m)
    for _ in range(100):
        a, b = rng.randrange(G.n), rng.randrange(G.n)
        pa, pb = G.perm(a), G.perm(b)
        assert G.perm(G.mul(a, b)) == pa * pb
        assert G.perm(G.inv(a)) == pa.inverse()
        assert G.id_of_perm(pa * pb) == G.mul(a, b)
    with pytest.raises(ValueError, match="is not an element"):
        G.id_of_perm(Perm.identity(m + 1))


def test_storage_budget_refuses_before_enumerating(monkeypatch, capsys):
    # One generator with cycles of lengths 7, 11, 13, 17 and 19 on 4,096
    # points has order 323,323, under the element ceiling; held as tuples
    # its elements would take 8 bytes a point, about 10.6 GB, far past what
    # MAX_ELEMENTS elements of degree 256 take as bytes.  The tuple walk
    # composes through `itemgetter`, so refusing it makes a missing budget
    # check fail here instead of allocating.
    def refuse(*args):
        raise AssertionError("enumerated past the storage budget")

    monkeypatch.setattr(groups, "itemgetter", refuse)
    cycles, start = [], 0
    for k in (7, 11, 13, 17, 19):
        cycles.append(list(range(start, start + k)))
        start += k
    desc = {"type": "perm", "degree": 4096, "generators": [cycles]}
    G = from_description(desc)
    assert G.order() == 323_323 <= groups.MAX_ELEMENTS
    assert 323_323 * 4096 * 8 > groups.MAX_ELEMENTS * 256
    with pytest.raises(LimitExceeded, match="storage budget of 256000000"):
        G.materialize()
    assert G._n is None and G._els == []
    assert main(["info", json.dumps(desc)]) == 2
    assert "past the storage budget" in capsys.readouterr().err


@pytest.mark.parametrize("name", [n for n in group_names()
                                  if isinstance(build_group(n), PermGroup)])
def test_mul_inv_match_permutation_arithmetic_on_the_catalogue(name):
    # Every id times a spread of ids (all of them up to order 120).
    G = build_group(name)
    perms = [G.perm(a) for a in range(G.n)]
    rights = range(0, G.n, max(1, G.n // 120))
    for a, pa in enumerate(perms):
        assert perms[G.inv(a)] == pa.inverse()
        for b in rights:
            assert perms[G.mul(a, b)] == pa * perms[b]


def test_element_orders_and_exponent():
    G = s4()
    hist = {}
    for a in range(G.n):
        hist[G.element_order(a)] = hist.get(G.element_order(a), 0) + 1
    assert hist == {1: 1, 2: 9, 3: 8, 4: 6}
    assert math.lcm(*hist) == 12
    D = d8()
    assert math.lcm(*(D.element_order(a) for a in range(D.n))) == 4
    assert not G.is_abelian()
    assert cn_table(6).is_abelian()


@pytest.mark.parametrize("name", ["S7", *group_names(), "ASL(2,3)", "AGL(2,3)"])
def test_element_orders_filled_by_power_walks_match_brute_orders(name):
    # Orders are read off one power walk per class; asked in id order, then
    # in reverse on a second handle, each against its own power loop.
    def brute_order(G, a):
        k, x = 1, a
        while x != 0:
            x, k = G.mul(x, a), k + 1
        return k

    for ids in (range, lambda n: range(n - 1, -1, -1)):
        if name == "S7":
            G = _s7()
        elif name in AFFINE:
            G = from_description(affine_description(*AFFINE[name]))
        else:
            G = build_group(name, fresh=True)
        got = {a: G.element_order(a) for a in ids(G.n)}
        assert got == {a: brute_order(G, a) for a in range(G.n)}


def test_closure_product_conj_sets():
    G = s3()
    t = G.id_of_perm(cyc(3, [(0, 1)]))
    u = G.id_of_perm(cyc(3, [(1, 2)]))
    A = closure_ids(G, [t])
    B = closure_ids(G, [u])
    assert len(A) == len(B) == 2
    assert A == brute_closure(G, [t])
    AB = product_ids(G, A, B)
    assert len(AB) == 4  # not a subgroup of a group of order 6
    r = G.id_of_perm(cyc(3, [(0, 1, 2)]))
    assert G.generated([G.conj(t, r)]).ids == frozenset({0, G.conj(t, r)}) != A


@pytest.mark.parametrize("name", ["S7", "5^4:3", "Q16"])
def test_closure_grows_by_cosets_like_the_brute_span(name):
    # Seed lists closed from scratch, and closures extended one seed at a
    # time from the closure of the seeds before it, as `Subgroup.gens` and
    # `normal_closure` extend theirs.  Seeds may repeat, be 1, or already
    # lie in the prior closure.  Every other list is drawn from a Sylow
    # subgroup, so that it climbs through several proper subgroups.
    if name == "S7":
        G = from_description({"type": "perm", "degree": 7,
                              "generators": [[list(range(7))], [[0, 1]]]})
    else:
        G = build_group(name)
    rng = random.Random(13)
    assert closure_ids(G, []) == closure_ids(G, [0]) == frozenset({0})
    assert closure_ids(G, [0], prior=frozenset({0})) == frozenset({0})
    pools = [range(G.n), sorted(sylow_subgroup(G, 2 if name != "5^4:3" else 5).ids)]
    for trial in range(12):
        seeds = rng.choices(pools[trial % 2], k=rng.randint(1, 4))
        seeds += rng.sample(seeds, 1)
        assert closure_ids(G, seeds) == brute_span(G, seeds), seeds
        span = frozenset({0})
        for k in range(1, len(seeds) + 1):
            span = closure_ids(G, seeds[:k], prior=span)
            assert span == brute_span(G, seeds[:k]), seeds[:k]


def test_conjugation_tables_match_conj():
    # Permutation groups, 5^4:3 on ids and a re-rooted (translated) subgroup.
    # The right tables come off the enumeration or from products; the
    # translation and conjugation tables are lookups into them.
    rerooted, _ = sylow_subgroup(s4(), 2).as_group()
    for G in (s4(), _s7(), build_group("5^4:3"), rerooted, affine_group("AGL(2,3)")):
        want = generator_tables_by_products(G)
        assert (G.right_tables(), G.translation_tables(), G.conjugation_tables()) == want
        assert len(want[0]) == len(G.reduced_generator_ids()) > 0
        for t, g in zip(G.conjugation_tables(), G.reduced_generator_ids()):
            assert list(t) == [G.conj(x, g) for x in range(G.n)]


def test_permutation_groups_make_no_products_for_tables_and_classes(monkeypatch):
    # The enumeration multiplied every id by every generator already; the
    # reduction, the tables, the classes and the coset numberings read it.
    for G in (_s7(), from_description(affine_description(3, True))):
        G.materialize()
        cyclic = G.generated(G.generator_ids[:1]).ids
        monkeypatch.setattr(G, "mul", lambda a, b: pytest.fail("a product was taken"))
        G.reduced_generator_ids()
        G.right_tables()
        G.conjugation_tables()
        reps = G.conjugacy_class_reps()
        assert len(set(G.class_labels())) == len(reps)
        G.left_cosets(cyclic)


def test_coset_conjugation_tables_match_conj():
    # Each entry is the coset of g^-1 x g for the coset's representative x.
    rerooted, _ = sylow_subgroup(s4(), 2).as_group()
    for G in (s4(), build_group("5^4:3"), rerooted):
        gens = G.reduced_generator_ids()
        for N in normal_subgroups(G):
            labels, reps = G.left_cosets(N.ids)
            tables = G.coset_conjugation_tables(N.ids)
            assert len(tables) == len(gens)
            for t, g in zip(tables, gens):
                assert list(t) == [labels[G.conj(r, g)] for r in reps]


def test_product_ids_matches_brute_products():
    G = s4()
    v4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1), (2, 3)])), G.id_of_perm(cyc(4, [(0, 2), (1, 3)]))]
    )
    t = G.generated([G.id_of_perm(cyc(4, [(0, 1)]))])  # not normal: left cosets matter
    rng = random.Random(5)
    lefts = [rng.sample(range(G.n), k) for k in (1, 3, 7)] + [t.ids, v4.ids]
    for right in (v4.ids, t.ids, frozenset((0,)), frozenset(range(G.n))):
        for left in lefts:
            want = frozenset(G.mul(a, b) for a in left for b in right)
            assert product_ids(G, left, right) == want, (left, right)
    big = build_group("5^4:3")
    M = normal_subgroups(big)[1]
    left = rng.sample(range(big.n), 40)
    assert product_ids(big, left, M.ids) == {big.mul(a, b) for a in left for b in M.ids}


def _coset_probes(G):
    # Every normal subgroup, a Sylow subgroup and some cyclic subgroups,
    # most of them not normal.
    reps = G.conjugacy_class_reps()
    probes = [N.ids for N in normal_subgroups(G)]
    probes += [sylow_subgroup(G, p).ids for p in factorize(G.n)]
    probes += [G.generated([r]).ids for r in reps[1::max(1, len(reps) // 6)]]
    return probes


def test_left_cosets_equal_the_scan_reference():
    # The walk over translation tables numbers the cosets as a scan of G's
    # ids with n products does, for normal and non-normal subgroups alike.
    rerooted, _ = normal_subgroups(build_group("S5"))[1].as_group()  # A5
    for G in (s4(), build_group("5^4:3"), rerooted, affine_group("AGL(2,3)")):
        probes = _coset_probes(G)
        assert any(not is_normal(G, Subgroup(G, ids)) for ids in probes)
        assert frozenset((0,)) in probes  # numbered without a walk
        for ids in probes:
            assert G.left_cosets(ids) == left_cosets_by_scan(G, ids), len(ids)


def test_left_cosets_take_no_products(monkeypatch):
    # A table group's right tables take n products per reduced generator;
    # the translation and conjugation tables are read off them, and after
    # them a new id-set is labelled by lookups alone.
    G = build_group("5^4:3", fresh=True)
    gens = G.reduced_generator_ids()
    calls = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or mul(a, b))
    G.conjugation_tables()
    assert len(calls) == G.n * len(gens)
    probes = _coset_probes(G)
    labelled = G.memo.get("FiniteGroup.left_cosets", {})
    assert any((ids,) not in labelled for ids in probes)
    calls.clear()
    for ids in probes:
        G.left_cosets(ids)
        product_ids(G, [1, 2, 3], ids)
    assert calls == []


def test_quotient_numbering_equals_a_right_coset_scan():
    for G in (s4(), build_group("5^4:3")):
        for N in normal_subgroups(G):
            labels, reps = [-1] * G.n, []
            for g in range(G.n):
                if labels[g] < 0:
                    for m in N.ids:
                        labels[G.mul(m, g)] = len(reps)
                    reps.append(g)
            _, projection = quotient(G, N)
            assert list(projection) == labels
            assert list(G.left_cosets(N.ids)[1]) == reps


def test_id_tables_are_read_only_and_shared():
    G = s4()
    v4 = normal_subgroups(G)[1]
    tables = G.conjugation_tables()
    labels, reps = G.left_cosets(v4.ids)
    cosets = G.coset_conjugation_tables(v4.ids)
    for table in (*tables, labels, reps, cosets, *cosets):
        with pytest.raises(TypeError):
            table[0] = 1
    assert G.conjugation_tables() is tables
    assert G.left_cosets(v4.ids)[0] is labels
    assert G.coset_conjugation_tables(v4.ids) is cosets
    assert quotient(G, v4)[1] is labels


def test_subgroup_validation_and_identity():
    G = s4()
    with pytest.raises(ValueError):
        Subgroup(G, range(5))  # 5 does not divide 24
    with pytest.raises(ValueError):
        Subgroup(G, [1, 2, 3])  # no identity
    t = G.id_of_perm(cyc(4, [(0, 1)]))
    u = G.id_of_perm(cyc(4, [(2, 3)]))
    bad = Subgroup(G, [0, t, u])  # right size, not closed
    with pytest.raises(ValueError):
        bad.gens
    H = G.generated([t, u])
    assert H.order == 4 and H.sorted_ids[0] == 0
    assert set(H.gens) == {t, u}


def test_subgroup_algebra():
    G = s4()
    t = G.id_of_perm(cyc(4, [(0, 1)]))
    r = G.id_of_perm(cyc(4, [(0, 1, 2, 3)]))
    H = G.generated([t])
    K = G.generated([G.id_of_perm(cyc(4, [(1, 2)]))])
    assert Subgroup(G, H.ids & K.ids).is_trivial
    assert H <= G.full_subgroup() and not (G.full_subgroup() <= H)
    Hc = G.generated([G.conj(x, r) for x in H.gens])
    assert Hc.order == 2 and Hc != H
    assert G.generated([t]) == H and hash(G.generated([t])) == hash(H)
    other = s4()
    with pytest.raises(ValueError):
        H <= other.full_subgroup()


def test_subgroup_as_group_rebases_product():
    G = s4()
    a4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1, 2)])), G.id_of_perm(cyc(4, [(0, 1), (2, 3)]))]
    )
    assert a4.order == 12
    sub, to_new = a4.as_group()
    assert sub.n == 12 and set(to_new) == a4.ids
    back = {v: k for k, v in to_new.items()}
    rng = random.Random(3)
    for _ in range(40):
        x, y = rng.choice(sorted(a4.ids)), rng.choice(sorted(a4.ids))
        assert back[sub.mul(to_new[x], to_new[y])] == G.mul(x, y)
    assert to_new[0] == 0


def test_reduced_generators_still_generate():
    r, t = cyc(4, [(0, 1, 2, 3)]), cyc(4, [(0, 1)])
    G = PermGroup([r, t, r * r, t * r])
    red = G.reduced_generator_ids()
    assert len(red) <= 2
    assert len(closure_ids(G, red)) == 24


def test_conjugacy_class_reps_cover():
    G = s4()
    reps = G.conjugacy_class_reps()
    assert len(reps) == 5
    seen = set()
    for a in reps:
        seen |= {G.conj(a, g) for g in range(G.n)}
    assert len(seen) == 24


@pytest.mark.parametrize("p,agl", [(3, 432), (5, 12_000), (7, 98_784)])
def test_affine_groups_have_their_orders(p, agl):
    # AGL(2,p) has order p^2 |GL(2,p)| = p^3 (p^2 - 1)(p - 1), and ASL(2,p)
    # p^3 (p^2 - 1); the stabilizer chain decides both without materialising.
    for general, want in ((True, agl), (False, p**3 * (p * p - 1))):
        G = from_description(affine_description(p, general))
        assert G.order() == want
        assert G._n is None


# Orders from the names: S_n, A_n, cyclic and elementary abelian groups,
# the groups of order 8 and 16, SL(2,q) = q(q^2 - 1), GL(2,3) = 48, and
# the affine groups p^2 |SL(2,p)| and p^2 |GL(2,p)|.
PINNED_ORDERS = {
    "S3": 6, "S4": 24, "S5": 120, "S6": 720, "A4": 12, "A5": 60, "C2": 2, "C3": 3,
    "C4": 4, "C5": 5, "C8": 8, "C9": 9, "C12": 12, "C2^2": 4, "C2^3": 8, "C2^4": 16,
    "C3^2": 9, "C5^2": 25, "C4xC2": 8, "D8": 8, "D16": 16, "Q8": 8, "Q16": 16,
    "SD16": 16, "M16": 16, "C2xD8": 16, "SL(2,3)": 24, "GL(2,3)": 48, "SL(2,5)": 120,
    "5^4:3": 1875, "ASL(2,3)": 216, "AGL(2,3)": 432, "AGL(2,5)": 12_000,
}


@pytest.mark.parametrize("name", [*group_names(), *AFFINE])
def test_orders_agree_with_enumeration_up_to_the_ceiling(name, monkeypatch):
    # The stabilizer chain's order is the enumerated one and the pinned one.
    # A ceiling one below it gets a lower bound above the ceiling, and a
    # handle made under that ceiling is refused before it enumerates anything.
    G = affine_group(name) if name in AFFINE else build_group(name)
    assert G.order() == G.n == PINNED_ORDERS[name]
    if not isinstance(G, PermGroup):
        return
    gens = [G.perm(g).images for g in G.generator_ids]
    assert bsgs.group_order(gens) == bsgs.group_order(gens, G.n) == G.n
    if G.n > 1:
        assert G.n - 1 < bsgs.group_order(gens, G.n - 1) <= G.n
        monkeypatch.setattr(groups, "MAX_ELEMENTS", G.n - 1)
        tight = PermGroup(map(G.perm, G.generator_ids))
        with pytest.raises(LimitExceeded, match="order at least"):
            tight.materialize()
        assert tight._order is None and tight._n is None


def test_table_group_validation():
    C6 = cn_table(6)
    assert C6.n == 6 and C6.element_order(1) == 6
    with pytest.raises(ValueError, match="not the identity"):
        TableGroup(3, lambda a, b: (a + b + 1) % 3, lambda a: (1 - a) % 3)
    for gens in ([3], [-1], ["1"]):
        outside = TableGroup(3, lambda a, b: (a + b) % 3, lambda a: (-a) % 3, gens=gens)
        with pytest.raises(ValueError, match="not an id"):
            outside.materialize()


def test_semidirect_c3_by_c2_is_symmetric():
    C3, C2 = cn_table(3), cn_table(2)
    G = semidirect_product(C3, C2, [[2]], name="C3:C2")  # invert the 3-cycle
    assert G.n == 6 and not G.is_abelian()
    assert brute_order_histogram(G) == {1: 1, 2: 3, 3: 2}
    e = 1 * C2.n + 1  # the pair (x, s) has id x * |C2| + s
    assert G.mul(e, e) == 0  # (x, s)^2 = (x * s(x), 1) = (x * x^-1, 1)


def direct(A, B):
    """A x B: the semidirect product whose action rows fix A's generators."""
    return semidirect_product(A, B, [A.generator_ids for _ in B.generator_ids])


def test_direct_product_is_componentwise():
    G = direct(cn_table(3), cn_table(2))
    assert G.n == 6 and G.is_abelian() and G.element_order(3) == 6
    # (x, s) has id x * |C2| + s; products multiply each coordinate
    assert all(G.mul(a, b) == (a // 2 + b // 2) % 3 * 2 + (a + b) % 2
               for a in range(6) for b in range(6))


def test_semidirect_rejects_bad_actions():
    C3, C2, C5 = cn_table(3), cn_table(2), cn_table(5)
    with pytest.raises(ValueError, match="non-bijective"):
        semidirect_product(C3, C2, [[0]])
    # x -> 2x has order 4 on C5; it cannot come from an involution acting
    with pytest.raises(ValueError, match="not a homomorphism"):
        semidirect_product(C5, C2, [[2]])
    with pytest.raises(ValueError, match="one action row"):
        semidirect_product(C3, C2, [])


@pytest.mark.parametrize("gens,row", [([1, 1], [4, 1]), ([1, 0], [4, 3])])
def test_semidirect_checks_every_given_image(gens, row):
    # C5 on a repeated generator, or with the identity among its
    # generators: x -> 4x is an automorphism, but the second image
    # contradicts it (1 -> 1 for the same generator, 0 -> 3 for the
    # identity), so the row defines no endomorphism.
    C5 = TableGroup(5, lambda a, b: (a + b) % 5, lambda a: (-a) % 5, gens=gens)
    with pytest.raises(ValueError, match="action row 0 does not define an endomorphism"):
        semidirect_product(C5, cn_table(2), [row])


def test_quotient_s4_by_klein():
    G = s4()
    v4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1), (2, 3)])), G.id_of_perm(cyc(4, [(0, 2), (1, 3)]))]
    )
    Q, labels = quotient(G, v4)
    assert Q.n == 6
    assert brute_order_histogram(Q) == {1: 1, 2: 3, 3: 2}
    assert Subgroup(G, (g for g in range(G.n) if labels[g] == 0)) == v4
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.randrange(G.n), rng.randrange(G.n)
        assert labels[G.mul(a, b)] == Q.mul(labels[a], labels[b])
    a4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1, 2)])), G.id_of_perm(cyc(4, [(0, 1), (2, 3)]))]
    )
    img = Q.generated([labels[g] for g in a4.gens])
    assert img.order == 3
    assert Subgroup(G, (g for g in range(G.n) if labels[g] in img.ids)) == a4


def test_quotient_rejects_non_normal():
    G = s4()
    H = G.generated([G.id_of_perm(cyc(4, [(0, 1)]))])
    with pytest.raises(ValueError):
        quotient(G, H)


def test_limits_are_enforced(monkeypatch, capsys):
    # Each ceiling is read from gpi.groups when it is checked, so one patch
    # of the two constants there trips every site, each before what it
    # guards is allocated.
    small, C3, C4 = s4(), cn_table(3), cn_table(4)
    v4 = small.generated(
        [small.id_of_perm(cyc(4, [(0, 1), (2, 3)])), small.id_of_perm(cyc(4, [(0, 2), (1, 3)]))]
    )
    assert main(["check", "--group", "C3", "--prime", "11", "--subgroup", "family:sylow"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(groups, "MAX_DEGREE", 4)
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 10)
    # The degree ceiling bounds permutation groups only, not quotients.
    assert quotient(small, v4)[0].n == 6
    with pytest.raises(LimitExceeded, match="degree 5 exceeds the ceiling 4"):
        PermGroup([cyc(5, [(0, 1)])])
    G = s4()
    with pytest.raises(LimitExceeded, match=r"order at least \d+ exceeds the element ceiling 10"):
        G.materialize()
    assert G._order is None and G._n is None
    with pytest.raises(LimitExceeded, match="order 12 exceeds the element ceiling 10"):
        TableGroup(12, lambda a, b: (a + b) % 12, lambda a: (-a) % 12)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the ceiling was checked")

    monkeypatch.setattr(groups, "hom_from_generators", refuse)
    with pytest.raises(LimitExceeded, match="order 12 exceeds the element ceiling 10"):
        semidirect_product(C3, C4, [[1]])
    monkeypatch.setattr(Perm, "from_cycles", refuse)
    monkeypatch.setattr(catalog, "cyc", refuse)
    with pytest.raises(LimitExceeded, match="degree 5 exceeds the ceiling 4"):
        from_description({"type": "perm", "degree": 5, "generators": [[[0, 1]]]})
    assert main(["check", "--group", "C3", "--prime", "11", "--subgroup", "family:sylow"]) == 2
    assert "--prime 11 exceeds the element ceiling 10" in capsys.readouterr().err


def test_brute_two_group_shapes():
    # The shape oracle on the catalogue's 2-groups with a cyclic maximal
    # subgroup, and the engine's Q8 test (order 8, a Q8 section) beside it.
    G = s4()
    v4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1), (2, 3)])), G.id_of_perm(cyc(4, [(0, 2), (1, 3)]))]
    )
    cases = [(d8(), "dihedral"), (q8(), "quaternion"), (dicyclic16(), "quaternion"),
             (sd16(), "semidihedral"), (m16(), "modular"),
             (PermGroup([cyc(8, [tuple(range(8))])]), None), (s4(), None)]
    for X, shape in cases:
        assert brute_two_group_shape(X) == shape, X
        P = X.full_subgroup()
        assert (P.order == 8 and not is_quaternion_free(P)) == (X.n == 8 and shape == "quaternion")
    assert brute_two_group_shape(G, v4.ids) is None
    assert brute_order_histogram(G, v4.ids) == {1: 1, 2: 3}


def test_semidirect_ceiling_trips_before_any_table(monkeypatch):
    # |N| * |Q| = 12 is over the ceiling of 10: the product is refused before
    # a single automorphism table (Q.n lists of N.n ids) is extended.
    def refuse(*args, **kwargs):
        raise AssertionError("an automorphism table was built")

    N, Q = cn_table(3), cn_table(4)
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 10)
    monkeypatch.setattr(groups, "hom_from_generators", refuse)
    with pytest.raises(LimitExceeded, match="order 12 exceeds the element ceiling 10"):
        semidirect_product(N, Q, [[1]])


def test_hom_extension_sign_map():
    G = s4()
    C2 = cn_table(2).materialize()
    phi = hom_from_generators(G, [1, 1], C2.mul)  # both given generators are odd
    assert hom_defect(G, phi, C2.mul) is None
    assert sum(1 for v in phi if v == 0) == 12
    with pytest.raises(ValueError, match="breaks the homomorphism"):
        hom_from_generators(G, [1, 0], C2.mul)


def test_brute_oracles_agree_on_s3():
    G = s3()
    assert brute_center(G) == frozenset({0})
    t = G.id_of_perm(cyc(3, [(0, 1)]))
    H = closure_ids(G, [t])
    assert brute_normalizer(G, H) == H  # a transposition is self-normalizing in S3


def test_memo_answers_repeat_calls_and_hands_out_copies():
    G = s4()
    H = cyclic_subgroups_of_order(G, 2)[0]
    v = satisfies_partial_pi(G, H)
    assert satisfies_partial_pi(G, H) is v
    assert sylow_subgroup(G, 2) is sylow_subgroup(G, 2, None)
    assert satisfies_partial_pi(G, Subgroup(G, H.ids)) is v
    normal_subgroups(G).clear()
    assert [N.order for N in normal_subgroups(G)] == [1, 4, 12, 24]
    # A Subgroup first argument is memoised on its ambient group.
    P = sylow_subgroup(G, 2)
    maximal_subgroups_of_p_group(P).clear()
    assert len(maximal_subgroups_of_p_group(P)) == 3


def test_full_subgroup_is_one_handle_sized_for_its_ids():
    # One full subgroup per handle, its id-set copied from a set: a
    # frozenset grown from range(5040) holds 524,504 bytes, one copied from
    # a set 262,360.
    G = from_description({"type": "perm", "degree": 7,
                          "generators": [[list(range(7))], [[0, 1]]]})
    full = G.full_subgroup()
    assert G.full_subgroup() is full and full.is_full and full.ids == frozenset(range(G.n))
    assert sys.getsizeof(full.ids) == sys.getsizeof(frozenset(set(range(G.n))))
    assert sys.getsizeof(full.ids) < sys.getsizeof(frozenset(range(G.n)))
    assert full.gens == G.reduced_generator_ids()


def test_trivial_subgroup_is_one_handle_with_private_gens():
    G = build_group("S4", fresh=True)
    triv = G.trivial_subgroup()
    assert G.trivial_subgroup() is triv and triv.ids == frozenset((0,))
    assert triv.gens == []
    triv.gens.append(5)
    assert triv.gens == [] and G.trivial_subgroup().gens == []


def _record_cases():
    G = s3()
    H, T = G.full_subgroup(), G.trivial_subgroup()
    check = FactorCheck(1, 3, 3, 1, (3,), True)
    # (class, fields in order, the defaulted tail left out, a changed copy)
    cases = [
        (FactorCheck, (1, 3, 3, 1, (3,), True), (), FactorCheck(1, 3, 3, 1, (3,), False)),
        (PiWitness, (G, H, [T, H], [check]), (), PiWitness(G, T, [T, H], [check])),
        (PiRefusal, (G, H, [(T, [check])]), (), PiRefusal(G, H, [])),
        (ChiefSeries, (G, [T, H]), (), ChiefSeries(G, [T])),
        (UpperPSeries, (G, 3, [T, H], ["p"]), (), UpperPSeries(G, 2, [T, H], ["p"])),
        (TheoremReport, ("t11", "l", "S3", [{"a": 1}]), ([],), TheoremReport("t11", "l", "S4")),
    ]
    return {case[0].__name__: case for case in cases}


@pytest.mark.parametrize("name", ["FactorCheck", "PiWitness", "PiRefusal",
                                  "ChiefSeries", "UpperPSeries", "TheoremReport"])
def test_records_compare_hash_and_print_by_value(name):
    cls, values, tail, other = _record_cases()[name]
    fields = cls.__slots__
    assert len(fields) == len(values)
    by_name = dict(zip(fields, values))
    a, b = cls(*values), cls(**by_name)
    assert a == b and not (a != b) and a != other and not (a == other)
    assert a != values and [getattr(a, f) for f in fields] == list(values)
    if tail:  # the defaulted fields may be left out, positionally or by name
        head = values[: -len(tail)]
        short = (cls(*head), cls(**dict(zip(fields, head))))
        assert all([getattr(x, f) for f in fields] == [*head, *tail] for x in short)
    shown = repr(a)
    assert shown.startswith(f"{cls.__name__}(")
    for f, v in by_name.items():
        assert (f"{f}={v!r}" in shown) == (cls is not PiRefusal or f != "blocked")
    if cls is FactorCheck:
        assert hash(a) == hash(b) and len({a, b, other}) == 2
        with pytest.raises(AttributeError):
            setattr(a, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], values[0])
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    if cls is TheoremReport:  # each report gets its own details list
        one, two = cls(*values[:3]), cls(*values[:3])
        one.details.append({"hypothesis": True})
        assert one.details is not two.details and two.details == [] and one != two


def test_memo_keys_positional_calls_only():
    # Decoration refuses every parameter shape a call could fill in more
    # than one way: defaults, keyword-only parameters, *args and **kwargs.
    for shape in [lambda G, x=0: x, lambda G, *, k: k, lambda G, *, k=0: k,
                  lambda G, *xs: xs, lambda G, **kw: kw]:
        with pytest.raises(TypeError):
            groups.memo(shape)
    calls = []

    @groups.memo
    def f(G, x):
        calls.append(x)
        return [x]

    @groups.memo
    def g(G, x):
        if x < 0:
            raise ValueError(x)
        return (x,)

    G = s3()
    assert f(G, 1) == f(G, 1) == [1] and calls == [1]
    assert list(G.memo[f.__qualname__]) == [(1,)]
    # A stored list is handed out as a copy, a stored tuple as itself.
    got = f(G, 1)
    got.append(2)
    assert f(G, 1) == [1] and G.memo[f.__qualname__][(1,)] == [1]
    # A function's table is made on its first miss that returns.
    with pytest.raises(ValueError):
        g(G, -1)
    assert g.__qualname__ not in G.memo
    assert g(G, 5) is g(G, 5) is G.memo[g.__qualname__][(5,)]
    # A keyword call, or a call with one argument too many or too few, is
    # refused whether or not its positional head is stored, and stores nothing.
    for bad in [lambda: f(G, x=1), lambda: f(G, x=2), lambda: f(G=G, x=1),
                lambda: f(G, 1, 2), lambda: f(G, 3, 4), lambda: f(G), lambda: f()]:
        with pytest.raises(TypeError):
            bad()
    assert calls == [1] and list(G.memo[f.__qualname__]) == [(1,)]


def _isomorphism(G, X):
    """An isomorphism G -> X as a list of ids, found by trying generator images.

    G's breadth-first tree from 1 (first in, first out, generators in order,
    as `hom_from_generators` walks it) is walked once; each candidate
    extends along it, every element's image its parent's image times the
    image of the generator that reached it."""
    gens = G.generator_ids
    tree = []  # (element, parent, generator index) in walk order
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for i, g in enumerate(gens):
                b = G.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    tree.append((b, a, i))
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == G.n
    for images in itertools.product(range(X.n), repeat=len(gens)):
        phi = [0] * G.n
        for b, a, i in tree:
            phi[b] = X.mul(phi[a], images[i])
        if len(set(phi)) == X.n and hom_defect(G, phi, X.mul) is None:
            return phi
    raise AssertionError(f"{X!r} is not isomorphic to {G!r}")


def _symmetric_table(k):
    """S_k as a table group on ids: the permutations of range(k) in
    lexicographic order (identity first), multiplied through a flat table."""
    perms = list(itertools.permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = [idx[tuple(b[x] for x in a)] for a in perms for b in perms]
    inv = [table[a * n:(a + 1) * n].index(0) for a in range(n)]
    return TableGroup(n, lambda a, b: table[a * n + b], inv.__getitem__)


def _s3_ways():
    G = s4()
    v4 = G.generated(
        [G.id_of_perm(cyc(4, [(0, 1), (2, 3)])), G.id_of_perm(cyc(4, [(0, 2), (1, 3)]))]
    )
    return [
        semidirect_product(cn_table(3), cn_table(2), [[2]]),
        _symmetric_table(3),
        quotient(G, v4)[0],
    ]


def _s4_ways():
    a, b, ab = cyc(4, [(0, 1)]), cyc(4, [(2, 3)]), cyc(4, [(0, 1), (2, 3)])
    # S3 permutes the three involutions of V4: (0 1 2) cycles a -> b -> ab,
    # (0 1) swaps a and b.
    V4S3 = semidirect_product(build_group("C2^2"), build_group("S3"), [[b, ab], [b, a]])
    S4xC2 = direct(s4(), cn_table(2))
    return [V4S3, _symmetric_table(4), quotient(S4xC2, Subgroup(S4xC2, (0, 1)))[0]]


def s4xc2():
    # Two generators keep the isomorphism search at 48^2 image pairs.
    return PermGroup([cyc(6, [(0, 1, 2), (4, 5)]), cyc(6, [(0, 1, 2, 3)])], name="S4xC2")


def _s4xc2_ways():
    return [direct(s4(), cn_table(2))]


@pytest.mark.parametrize(
    "name,ways", [("S3", _s3_ways), ("S4", _s4_ways), ("S4xC2", _s4xc2_ways)]
)
def test_backends_agree_under_isomorphism(name, ways):
    # A permutation group against a semidirect product, a product table and
    # a quotient: every subgroup carried over by an isomorphism gets the same
    # verdict, a witness the same factor checks, and a refusal the same
    # blocked states (mapped through the isomorphism), each with the same
    # multiset of checks.  A refusal explores every state reachable through
    # passing checks, so neither depends on sibling order.  Every subgroup
    # of S3 is witnessed; S4 adds refusals (9 of its 30 subgroups); S4xC2
    # has several chief series, and its refusals hold its factor checks
    # with a nontrivial meet over K != 1.
    G = s4xc2() if name == "S4xC2" else build_group(name)
    subgroups = all_subgroups(G)
    want = [satisfies_partial_pi(G, H) for H in subgroups]
    deep = [c for v in want if not v.satisfied for _, cs in v.blocked for c in cs
            if 1 < c.k_order < c.meet_order < c.m_order]
    assert (name == "S4xC2") == bool(deep)
    for X in ways():
        phi = _isomorphism(G, X)
        assert all(X.inv(phi[a]) == phi[G.inv(a)] for a in range(G.n))
        assert one_chief_series(X).factor_orders() == one_chief_series(G).factor_orders()
        for H, v in zip(subgroups, want):
            got = satisfies_partial_pi(X, Subgroup(X, {phi[h] for h in H.ids}))
            assert got.satisfied == v.satisfied, (name, X, H)
            if v.satisfied:
                assert got.checks == v.checks, (name, X, H)
                continue
            blocked = {frozenset(phi[a] for a in S.ids): Counter(cs) for S, cs in v.blocked}
            assert {S.ids: Counter(cs) for S, cs in got.blocked} == blocked, (name, X, H)


def _population(G, two_maximal):
    """Every cyclic subgroup, each Sylow subgroup and its 2-minimal family
    (and its 2-maximal family when asked), deduplicated by id-set: the
    verdict populations of the benchmark."""
    pop = {}
    for k in sorted({G.element_order(a) for a in range(G.n)}):
        for H in cyclic_subgroups_of_order(G, k):
            pop.setdefault(H.ids, H)
    for p in factorize(G.n):
        P = sylow_subgroup(G, p)
        family = two_minimal_subgroups(P, p)
        if two_maximal:
            family += two_maximal_subgroups_of_p_group(P)
        for H in [P] + family:
            pop.setdefault(H.ids, H)
    return list(pop.values())


def _relabelled(G, seed):
    """G as a table group whose ids are G's moved by a seeded random
    permutation fixing 0, with the maps G -> X and X -> G."""
    rest = list(range(1, G.n))
    random.Random(seed).shuffle(rest)
    to = [0] + rest
    back = [0] * G.n
    for a, x in enumerate(to):
        back[x] = a
    gmul, ginv = G.mul, G.inv
    X = TableGroup(G.n, lambda a, b: to[gmul(back[a], back[b])], lambda a: to[ginv(back[a])],
                   gens=[to[g] for g in G.generator_ids])
    return X, to, back


def _carried(v, X, phi, Hx):
    """Witness v carried to X by the id map phi: its terms mapped, its checks kept."""
    terms = [Subgroup(X, {phi[a] for a in T.ids}) for T in v.terms]
    return PiWitness(X, Hx, terms, v.checks)


@pytest.mark.parametrize("name,two_maximal,size", [("S7", True, 2054), ("5^4:3", False, 1589)])
def test_backends_agree_on_relabelled_benchmark_populations(name, two_maximal, size):
    # S7 (permutation backend) and 5^4:3 (a semidirect product), each against
    # itself relabelled as a table group: every member of the benchmark's
    # population gets the same verdict, a refusal blocks the same states with
    # the same checks, and each side's witness, carried to the other, passes
    # there with the same checks.  Witnesses are replayed, not compared: the
    # search takes chief steps in id order, so on 5^4:3 (26 minimal normal
    # subgroups) the two sides may witness along different series.
    G = _s7() if name == "S7" else build_group(name)
    population = _population(G, two_maximal)
    assert len(population) == size
    X, to, back = _relabelled(G, 2026)
    for H in population:
        v = satisfies_partial_pi(G, H)
        Hx = Subgroup(X, {to[h] for h in H.ids})
        got = satisfies_partial_pi(X, Hx)
        assert got.satisfied == v.satisfied, (name, H)
        if v.satisfied:
            assert _carried(v, X, to, Hx).verify(), (name, H)
            assert _carried(got, G, back, H).verify(), (name, H)
            continue
        blocked = {frozenset(to[a] for a in S.ids): Counter(cs) for S, cs in v.blocked}
        assert {S.ids: Counter(cs) for S, cs in got.blocked} == blocked, (name, H)
