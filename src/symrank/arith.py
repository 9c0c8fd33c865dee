"""Exact rational arithmetic and the q-series building blocks.

Everything here is exact: values are `fractions.Fraction`, or `ZInvP`
pairs inside the route kernels, and the only non-point result is
`BoundedValue`, a rigorous rational enclosure used for infinite products
and limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """A factor p**mu of a modulus, with p prime and mu >= 1."""

    p: int
    mu: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.mu < 1:
            raise ValueError(f"mu = {self.mu} must be >= 1")

    @property
    def value(self) -> int:
        return self.p**self.mu


@dataclass(frozen=True)
class BoundedValue:
    """Closed rational interval [lower, upper] guaranteed to contain a value."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("empty enclosure: lower > upper")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, x: Fraction) -> bool:
        return self.lower <= x <= self.upper

    def intersects(self, other: "BoundedValue") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def complement_from_one(self) -> "BoundedValue":
        """Enclosure of 1 - x for x in this interval."""
        return BoundedValue(1 - self.upper, 1 - self.lower)


class ZInvP:
    """Gcd-free exact arithmetic in Z[1/p], the ring every P(n, p**mu) lies in.

    A value is a pair (num, exp) meaning num / p**exp, for any integer exp.
    A sum aligns exponents by multiplying the term with the smaller exp by
    p**diff, so no gcd is taken until `fraction` builds the one Fraction a
    route returns.  Powers p**e are cached for e < POW_CACHE only: a cache of
    every power up to E would hold O(E**2) bits.
    """

    POW_CACHE = 1024
    ZERO = (0, 0)
    ONE = (1, 0)

    def __init__(self, p: int) -> None:
        self.p = p
        self._pows = [1]

    def pow(self, e: int) -> int:
        """p**e for e >= 0."""
        pows = self._pows
        if e < len(pows):
            return pows[e]
        if e >= self.POW_CACHE:
            return self.p**e
        x = pows[-1]
        while len(pows) <= e:
            x *= self.p
            pows.append(x)
        return x

    def add(self, *terms: tuple[int, int]) -> tuple[int, int]:
        exp = None
        for num, e in terms:
            if num and (exp is None or e > exp):  # a zero must not raise the exponent
                exp = e
        if exp is None:
            return self.ZERO
        total = 0
        for num, e in terms:
            if num:
                total += num if e == exp else num * self.pow(exp - e)
        return total, exp

    def div_one_minus_q(self, x: tuple[int, int], j: int) -> tuple[int, int]:
        """x / (1 - q**j) for q = 1/p and j >= 1, by exact integer division;
        raises ArithmeticError when the quotient is not in Z[1/p]."""
        num, exp = x
        quot, rem = divmod(num, self.pow(j) - 1)
        if rem:
            raise ArithmeticError(f"x / (1 - q**{j}) is not in Z[1/{self.p}]")
        return quot, exp - j

    def fraction(self, x: tuple[int, int]) -> Fraction:
        """x in lowest terms: the one gcd of a route."""
        num, exp = x
        if exp <= 0:
            return Fraction(num * self.pow(-exp))
        return Fraction(num, self.pow(exp))


def pochhammer(n: int, q: Fraction) -> Fraction:
    """Finite product prod_{j=1..n} (1 - q**j); empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = Fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        power *= q
        out *= 1 - power
    return out


def pochhammer_infinite(q: Fraction, eps: Fraction) -> BoundedValue:
    """Enclosure of prod_{j>=1} (1 - q**j) with width <= eps, for 0 < q < 1.

    Truncates at N and bounds the tail with
    1 >= prod_{j>N} (1 - q**j) >= 1 - sum_{j>N} q**j = 1 - q**(N+1)/(1-q).
    """
    q = Fraction(q)
    eps = Fraction(eps)
    if not 0 < q < 1:
        raise ValueError("q must satisfy 0 < q < 1")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    prod = Fraction(1)
    power = Fraction(1)
    n = 0
    while True:
        n += 1
        power *= q
        prod *= 1 - power
        tail = power * q / (1 - q)  # q**(n+1)/(1-q)
        if tail <= eps:
            return BoundedValue(prod * (1 - tail), prod)


def t_beta(beta: int, k: int, s: int, q: Fraction) -> Fraction:
    """Auxiliary sum T_beta(k, s) at base q.

    T_beta(0, s) = 1.  For k >= 1,
    T_beta(k, s) = sum_{j=0..s} q**(beta*j) * P(k+j-1) / (P(j) * P(k-1))
    with P(i) = pochhammer(i, q**2).  The product ratio is updated
    incrementally: step j multiplies by (1 - q**(2(k+j-1))) / (1 - q**(2j)).
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if k < 0 or s < 0:
        raise ValueError("k and s must be >= 0")
    if k == 0:
        return Fraction(1)
    q = Fraction(q)
    q2 = q * q
    total = Fraction(0)
    ratio = Fraction(1)
    for j in range(s + 1):
        if j > 0:
            ratio *= (1 - q2 ** (k + j - 1)) / (1 - q2**j)
        total += q ** (beta * j) * ratio
    return total


def t1_alt(k: int, s: int, q: Fraction) -> Fraction:
    """Alternate closed form for T_1(k, s):

    (P(k) / Pi_{2k}(q)) * (1 - q**(s+1) * sum_{j=0..k-1}
        q**(2j) * Pi_{2j}(q) * P(j+s) / (P(j)**2 * P(s)))
    with P(i) = pochhammer(i, q**2).  Must agree exactly with t_beta(1,...).
    """
    q = Fraction(q)
    _check_alt_args(k, s, q)
    q2 = q * q
    total = Fraction(0)
    for j in range(k):
        total += (
            q ** (2 * j)
            * pochhammer(2 * j, q)
            * pochhammer(j + s, q2)
            / (pochhammer(j, q2) ** 2 * pochhammer(s, q2))
        )
    return pochhammer(k, q2) / pochhammer(2 * k, q) * (1 - q ** (s + 1) * total)


def t3_alt(k: int, s: int, q: Fraction) -> Fraction:
    """Alternate closed form for T_3(k, s), the odd-index sibling of t1_alt:

    (P(k) / Pi_{2k+1}(q)) * (1 - q - q**(3s+3) * sum_{j=0..k-1}
        q**(2j) * Pi_{2j+1}(q) * P(j+s) / (P(j)**2 * P(s)))
    """
    q = Fraction(q)
    _check_alt_args(k, s, q)
    q2 = q * q
    total = Fraction(0)
    for j in range(k):
        total += (
            q ** (2 * j)
            * pochhammer(2 * j + 1, q)
            * pochhammer(j + s, q2)
            / (pochhammer(j, q2) ** 2 * pochhammer(s, q2))
        )
    return (
        pochhammer(k, q2)
        / pochhammer(2 * k + 1, q)
        * (1 - q - q ** (3 * s + 3) * total)
    )


def _check_alt_args(k: int, s: int, q: Fraction) -> None:
    if k < 0 or s < 0:
        raise ValueError("k and s must be >= 0")
    if not 0 < q < 1:
        raise ValueError("q must satisfy 0 < q < 1")


def legendre(d: int, p: int) -> int:
    """Legendre symbol (d|p) for an odd prime p: 0, +1 or -1."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    r = pow(d % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def factorize(m: int) -> list[PrimePower]:
    """Prime-power factorization of m >= 2, primes strictly increasing."""
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    out: list[PrimePower] = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            mu = 0
            while rest % d == 0:
                rest //= d
                mu += 1
            out.append(PrimePower(d, mu))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append(PrimePower(rest, 1))
    return out
