"""Integer helpers: factorisation, prime sets, pi-number tests."""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; fine for desk-scale orders."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_set(n: int) -> tuple[int, ...]:
    """Sorted primes dividing n.  prime_set(1) is empty."""
    return tuple(sorted(factorize(n)))


# Miller-Rabin on the first 13 primes as bases is exact below the least
# composite that passes all of them (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above `_MR_BOUND` raises ValueError."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for a in _MR_BASES:  # a is a witness unless a^d = 1 or a^(d 2^r) = -1, r < s
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def is_pi_number(n: int, pi) -> bool:
    """True when every prime of n lies in pi.  1 passes for any pi, the empty set included."""
    if n < 1:
        raise ValueError(f"not a positive integer: {n}")
    pi = set(pi)
    return all(p in pi for p in prime_set(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out
