"""The verdict populations of the benchmark, built through the package's
own calls: S7 on the permutation backend and the catalogue's `5^4:3`."""

from __future__ import annotations

from gpi.arith import factorize
from gpi.catalog import from_description
from gpi.sylow import (
    cyclic_subgroups_of_order,
    sylow_subgroup,
    two_maximal_subgroups_of_p_group,
    two_minimal_subgroups,
)


def s7():
    return from_description({"type": "perm", "degree": 7,
                             "generators": [[list(range(7))], [[0, 1]]]})


def benchmark_population(G, two_maximal):
    """Every cyclic subgroup, each Sylow subgroup and its 2-minimal family
    (and its 2-maximal family when asked), deduplicated by id-set: 2,054
    subgroups of S7 with the 2-maximal families, 1,589 of `5^4:3` without."""
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
