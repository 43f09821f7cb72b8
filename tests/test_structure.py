import pytest

from gpi.arith import factorize
from gpi.catalog import build_group, from_description, group_names
from gpi.groups import Subgroup, closure_ids
from gpi.perm import Perm
from gpi.series import minimal_normal_overgroups, normal_subgroups
from gpi.structure import (
    centralizer,
    centre,
    element_power,
    frattini_subgroup_of_p_subgroup,
    normal_closure,
    normalizer_index,
    p_residual,
)
from gpi.sylow import cyclic_subgroups_of_order

from oracles import brute_center, brute_centralizer, brute_factor_centralizer, brute_normalizer

cyc = Perm.from_cycles


def sub_of(G, *perms):
    return G.generated([G.id_of_perm(p) for p in perms])


@pytest.fixture(scope="module")
def s4():
    return build_group("S4")


@pytest.fixture(scope="module")
def s4_probes(s4):
    return [
        sub_of(s4, cyc(4, [(0, 1)])),
        sub_of(s4, cyc(4, [(0, 1, 2, 3)])),
        sub_of(s4, cyc(4, [(0, 1), (2, 3)]), cyc(4, [(0, 2), (1, 3)])),
        sub_of(s4, cyc(4, [(0, 1, 2)])),
        s4.trivial_subgroup(),
        s4.full_subgroup(),
    ]


def test_normalizer_index_equals_orbit_free_count(s4, s4_probes):
    for H in s4_probes:
        assert normalizer_index(s4, H.ids) == s4.n // len(brute_normalizer(s4, H.ids))
    d8 = build_group("D8")
    r = d8.generated([d8.generator_ids[0]])
    assert normalizer_index(d8, r.ids) == 1  # the rotation subgroup is normal
    # 5^4:3 on the semidirect backend: a minimal normal subgroup, lines and
    # planes of 5^4, and a self-normalising Sylow 3-subgroup.
    big = build_group("5^4:3")
    lines = cyclic_subgroups_of_order(big, 5)[:4]
    plane = minimal_normal_overgroups(big, big.trivial_subgroup())[0]
    probes = [plane, *lines, cyclic_subgroups_of_order(big, 3)[0]]
    probes += [big.generated(lines[0].gens + L.gens) for L in lines[1:]]
    seen = set()
    for H in probes:
        idx = normalizer_index(big, H.ids)
        assert idx == big.n // len(brute_normalizer(big, H.ids)), H
        seen.add(idx)
    assert seen == {1, 3, 625}
    # With `modulus=` the orbit runs on K-coset numbers: a line L outside a
    # minimal normal K (order 25) gives HK = LK of order 125, whose coset
    # numbers must have the id-level index of HK.
    labels = big.left_cosets(plane.ids)[0]
    line = next(L for L in cyclic_subgroups_of_order(big, 5) if not L.ids <= plane.ids)
    hk = big.generated(plane.gens + line.gens)
    cosets = frozenset(labels[x] for x in hk.ids)
    assert len(cosets) == 5
    idx = normalizer_index(big, cosets, modulus=plane.ids)
    assert idx == big.n // len(brute_normalizer(big, hk.ids)) == 3
    # A one-coset query (H <= K) is the normal subgroup K itself.
    assert normalizer_index(big, frozenset((0,)), modulus=plane.ids) == 1
    # K = A7 in S7: HK is A7 (one coset) or S7 (both), normal either way.
    # brute_normalizer would make 12.7 M conjugations of A7 alone, so the
    # id-level index of HK is read off S7's generators instead: the
    # normalizer is a subgroup, so it is S7 when they all normalize HK.
    s7 = from_description({"type": "perm", "degree": 7,
                           "generators": [[list(range(7))], [[0, 1]]]})
    a7 = next(N for N in normal_subgroups(s7) if N.order == 2520)
    labels = s7.left_cosets(a7.ids)[0]
    for H in (cyclic_subgroups_of_order(s7, 3)[0], cyclic_subgroups_of_order(s7, 2)[0]):
        hk = s7.generated(a7.gens + H.gens)
        cosets = frozenset(labels[x] for x in hk.ids)
        assert len(cosets) == hk.order // 2520
        assert all({s7.conj(x, g) for x in hk.ids} == hk.ids for g in s7.generator_ids)
        assert normalizer_index(s7, cosets, modulus=a7.ids) == 1


def test_centralizer_and_centre(s4):
    t = s4.id_of_perm(cyc(4, [(0, 1)]))
    assert centralizer(s4, [t]).ids == brute_centralizer(s4, [t])
    assert centre(s4).is_trivial
    d8 = build_group("D8")
    z = centre(d8)
    assert z.order == 2 and d8.element_order(next(iter(z.ids - {0}))) == 2
    assert centre(build_group("Q8")).order == 2
    assert centre(build_group("C12")).is_full


def test_factor_centralizer(s4):
    # Pins the scan behind the literal centrality oracle.
    v4 = sub_of(s4, cyc(4, [(0, 1), (2, 3)]), cyc(4, [(0, 2), (1, 3)]))
    a4 = sub_of(s4, cyc(4, [(0, 1, 2)]), cyc(4, [(0, 1), (2, 3)]))
    assert brute_factor_centralizer(s4, v4, s4.trivial_subgroup()) == v4.ids
    assert brute_factor_centralizer(s4, a4, v4) == a4.ids
    assert brute_factor_centralizer(s4, s4.full_subgroup(), a4) == s4.full_subgroup().ids
    with pytest.raises(ValueError):
        brute_factor_centralizer(s4, v4, a4)  # K not inside L


def test_normal_closure(s4):
    t = s4.id_of_perm(cyc(4, [(0, 1)]))
    dd = s4.id_of_perm(cyc(4, [(0, 1), (2, 3)]))
    r3 = s4.id_of_perm(cyc(4, [(0, 1, 2)]))
    gens = s4.reduced_generator_ids()
    assert normal_closure(s4, [t], by=gens).is_full
    assert normal_closure(s4, [dd], by=gens).order == 4
    assert normal_closure(s4, [r3], by=gens).order == 12
    assert normal_closure(s4, [], by=gens).is_trivial
    # Inside D8 = <(0 1 2 3), (0 2)> the reflection (0 2) is conjugate only to
    # (1 3); with nothing to conjugate by, the closure is <(0 2)>.
    r4 = s4.id_of_perm(cyc(4, [(0, 1, 2, 3)]))
    t02 = s4.id_of_perm(cyc(4, [(0, 2)]))
    t13 = s4.id_of_perm(cyc(4, [(1, 3)]))
    assert normal_closure(s4, [t02], by=[r4, t02]).ids == closure_ids(s4, [t02, t13])
    assert normal_closure(s4, [t02], by=[]).order == 2


def test_residuals(s4):
    assert p_residual(s4, 2).order == 12  # odd-order elements generate A4
    assert p_residual(s4, 3).is_full  # 2-elements include all transpositions
    with pytest.raises(ValueError):
        p_residual(s4, 5)
    a5 = build_group("A5")
    assert p_residual(a5, 2).is_full and p_residual(a5, 5).is_full


def test_frattini_of_p_subgroups():
    d8 = build_group("D8")
    phi = frattini_subgroup_of_p_subgroup(d8.full_subgroup(), 2)
    assert phi.order == 2
    q8 = build_group("Q8")
    assert frattini_subgroup_of_p_subgroup(q8.full_subgroup(), 2).order == 2
    c8 = build_group("C8")
    assert frattini_subgroup_of_p_subgroup(c8.full_subgroup(), 2).order == 4
    ea = build_group("C2^3")
    assert frattini_subgroup_of_p_subgroup(ea.full_subgroup(), 2).is_trivial
    s4 = build_group("S4")
    with pytest.raises(ValueError):
        frattini_subgroup_of_p_subgroup(s4.full_subgroup(), 2)
    assert frattini_subgroup_of_p_subgroup(s4.trivial_subgroup(), 2).is_trivial


def test_element_power(s4):
    r = s4.id_of_perm(cyc(4, [(0, 1, 2, 3)]))
    assert element_power(s4, r, 2) == s4.mul(r, r)
    assert element_power(s4, r, 4) == 0
    assert element_power(s4, r, -1) == s4.inv(r)
    assert element_power(s4, r, 0) == 0
    assert element_power(s4, r, 7) == s4.mul(s4.mul(r, r), r)


def test_closure_respects_trivial_seeds(s4):
    assert closure_ids(s4, []) == frozenset({0})
    assert closure_ids(s4, [0]) == frozenset({0})


@pytest.mark.parametrize("name", group_names())
def test_p_residual_matches_a_conjugation_by_products_reference(name):
    # p_residual reads O^p(G) off the normal lattice; the reference closes
    # the elements of order prime to p under conjugation, g^-1 x g with two
    # products per reduced generator, and must reach the same ids.
    G = build_group(name)
    gens = G.reduced_generator_ids()
    for p in factorize(G.n):
        hgens, H = [], frozenset((0,))
        todo = [a for a in range(G.n) if G.element_order(a) % p]
        for x in todo:
            if x not in H:
                hgens.append(x)
                H = closure_ids(G, hgens, prior=H)
                todo.extend(G.conj(x, g) for g in gens)
        assert p_residual(G, p).ids == H, p


@pytest.mark.parametrize("name", group_names())
def test_centre_matches_the_brute_centre(name):
    G = build_group(name)
    assert centre(G).ids == brute_center(G)
