"""The U_p-hypercentre of the theorem checks, read as the p-hypercyclic
hypercentre.

Z_{U_p}(G) is taken as in the partial-Pi literature (Skiba, J. Pure Appl.
Algebra 215, 2011): the largest normal subgroup on which every G-chief
factor of order divisible by p has order p.  A factor is therefore
central from its order alone.  The Doerk-Hawkes reading, which also asks
G/C_G(M/K) to be p-supersoluble for a p'-factor, makes t12 false on
ASL(2,3) = 3^2:SL(2,3) at p = 2; the test suite keeps that reading as a
negative control.
"""

from __future__ import annotations

from .groups import FiniteGroup, Subgroup, memo
from .series import minimal_normal_overgroups


@memo
def f_hypercenter(G: FiniteGroup, p: int) -> Subgroup:
    """The largest normal subgroup all of whose G-chief factors of order
    divisible by p have order p, reached by climbing central steps M/Z
    (|M/Z| prime to p, or equal to p) greedily.

    The climb cannot stall early or overshoot.  A central step M/Z from
    inside the hypercentre H stays inside it: otherwise HM/H is
    G-isomorphic to M/Z, so HM would be a larger subgroup of the same
    kind.  Below H a central step always exists: by Jordan-Holder for
    G-chief series, the factors of a chief series from Z up to H are
    G-isomorphic to factors of one from 1 up to H, so all are central,
    the first one included.
    """
    Z = G.trivial_subgroup()
    while True:
        for M in minimal_normal_overgroups(G, Z):
            v = M.order // Z.order
            if v % p or v == p:
                Z = M
                break
        else:
            return Z
