"""Central chief factors for the supersoluble formations and their
hypercenters.

A chief factor M/K is central for a formation when the semidirect
product of M/K by G/C_G(M/K) lies in the formation.  The fast test
below never builds that product: the factor is minimal normal in it, so
membership splits into a condition on |M/K| and one on G/C_G(M/K).
The test suite pins it against a literal construction of that product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .groups import FiniteGroup, Subgroup, memo, quotient
from .series import is_p_supersoluble, is_supersoluble, minimal_normal_overgroups
from .structure import factor_centralizer


@dataclass(frozen=True)
class Formation:
    """The supersoluble groups (kind "U") or the p-supersoluble groups
    (kind "Up" with a prime attached)."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("U", "Up"):
            raise ValueError(f"unknown formation kind {self.kind!r}")
        if (self.kind == "Up") != (self.p is not None):
            raise ValueError("exactly the p-local formation takes a prime")

    @property
    def label(self) -> str:
        return "U" if self.kind == "U" else f"U_{self.p}"

    def contains(self, G: FiniteGroup) -> bool:
        if self.kind == "U":
            return is_supersoluble(G)
        return is_p_supersoluble(G, self.p)


U = Formation("U")


def Up(p: int) -> Formation:
    return Formation("Up", p)


def is_factor_central(G: FiniteGroup, K: Subgroup, M: Subgroup, f: Formation) -> bool:
    """Whether the chief factor M/K is f-central in G.

    For "U" the factor is central exactly when its order is prime: the
    acting group embeds into the cyclic Aut(C_q), so the semidirect
    product is supersoluble precisely then.  For "Up" a factor of order
    divisible by p must have order p (and then the cyclic action keeps
    the product p-supersoluble), while a p'-factor is central exactly
    when G/C_G(M/K) is p-supersoluble.
    """
    v = M.order // K.order
    if f.kind == "U":
        return is_prime(v)
    p = f.p
    if v % p == 0:
        return v == p
    C = factor_centralizer(G, M, K)
    if C.is_full:
        return True
    Q = G if C.is_trivial else quotient(G, C)[0]
    return is_p_supersoluble(Q, p)


@memo
def f_hypercenter(G: FiniteGroup, f: Formation, tie_reverse: bool = False) -> Subgroup:
    """The largest normal subgroup all of whose chief factors are
    f-central, reached by climbing central steps greedily.

    Any central step from inside the hypercenter stays inside it, and
    below the hypercenter a central step always exists, so the climb
    cannot stall early or overshoot; `tie_reverse` only reorders the
    climb and must not change the result.
    """
    Z = G.trivial_subgroup()
    climbing = True
    while climbing:
        climbing = False
        succ = minimal_normal_overgroups(G, Z)
        for M in reversed(succ) if tie_reverse else succ:
            if is_factor_central(G, Z, M, f):
                Z = M
                climbing = True
                break
    return Z
