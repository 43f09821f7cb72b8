"""The U_p-hypercentre of the theorem checks, read as the p-hypercyclic
hypercentre.

Z_{U_p}(G) is taken as in the partial-Pi literature (Skiba, J. Pure Appl.
Algebra 215, 2011): the largest normal subgroup on which every G-chief
factor of order divisible by p has order p.  A factor is therefore
central from its order alone, and the hypercentre is a `climb` along
G's chief steps, with no quotient group formed.  The Doerk-Hawkes
reading, which also asks G/C_G(M/K) to be p-supersoluble for a
p'-factor, makes t12 false on ASL(2,3) = 3^2:SL(2,3) at p = 2; the test
suite keeps that reading as a negative control.
"""

from __future__ import annotations

from .groups import FiniteGroup, Subgroup, memo
from .series import climb


@memo
def f_hypercenter(G: FiniteGroup, p: int) -> Subgroup:
    """The largest normal subgroup all of whose G-chief factors of order
    divisible by p have order p: the climb through steps M/Z with |M/Z|
    prime to p or equal to p.  The step reads the order of M/Z only, so
    `climb` reaches the largest such subgroup whichever steps it takes."""
    return climb(G, G.trivial_subgroup(), lambda Z, M: (
        (M.order // Z.order) % p != 0 or M.order // Z.order == p))
