"""Generating functions for the nonsingularity probabilities.

For fixed prime p (q = 1/p), the series sum_{mu>=1} P(n, p**mu) x**mu is a
rational function of x with the closed forms

    G_0(x)      = x / (1-x)
    G_{2k+1}(x) = (x/(1-x)) ((1-q x^2)/(1-q x))
                  * prod_{j=0..k} (1-q^(2j+1)) / (1-q^(2j+1) x^2)
    G_{2k}(x)   = G_{2k+1}(x) * (1-q^(2k+1) x) / (1-q^(2k+1)).

A polynomial is a tuple of ints indexed by exponent, trailing zeros
trimmed.  A factor 1 - c x^d with rational c = a/b is written
(b - a x^d) / b, the denominator of c moved into den, so no product takes
a gcd.  Rational functions are never reduced, and equality means
cross-multiplied polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ZInvP, is_prime


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mul(a: tuple, b: tuple) -> tuple:
    if not any(a) or not any(b):
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    while out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of integer polynomials; den is nonzero and (for our use)
    has a nonzero constant term so a series expansion at 0 exists."""

    num: tuple
    den: tuple

    def __post_init__(self) -> None:
        if not any(self.den):
            raise ValueError("zero denominator")

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)),
            _mul(self.den, other.den),
        )

    def equals(self, other: "RationalFunction") -> bool:
        """Identity as rational functions: num1*den2 == num2*den1."""
        return _mul(self.num, other.den) == _mul(other.num, self.den)


def _lin(c: Fraction, d: int) -> tuple:
    """1 - c x^d times the denominator b of c = a/b: b - a x^d."""
    return _add((c.denominator,), (0,) * d + (-c.numerator,))


def _one_minus(c: Fraction, d: int = 0) -> RationalFunction:
    """1 - c x^d"""
    return RationalFunction(_lin(c, d), (c.denominator,))


def _ratio(c: Fraction, i: int, j: int) -> RationalFunction:
    """(1 - c x^i) / (1 - c x^j); the denominator of c cancels."""
    return RationalFunction(_lin(c, i), _lin(c, j))


def series(f: RationalFunction, order: int) -> list[Fraction]:
    """Exact coefficients of x^0..x^order by long division at x = 0.
    With d0 the constant term of den, the k-th coefficient is s_k / d0^(k+1)
    for an integer s_k, so the division runs on integers."""
    if order < 0:
        raise ValueError("order must be >= 0")
    num, den = f.num, f.den
    if not den or den[0] == 0:
        raise ValueError("denominator has zero constant term; no expansion at 0")
    d0 = den[0]
    s: list[int] = []
    for k in range(order + 1):
        acc = num[k] * d0**k if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * s[k - i] * d0 ** (i - 1)
        s.append(acc)
    return [Fraction(c, d0 ** (k + 1)) for k, c in enumerate(s)]


def gf(n: int, q: Fraction) -> RationalFunction:
    """The generating function G_n(x) for base q = 1/p, unreduced."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = Fraction(q)
    g0 = RationalFunction((0, 1), (1, -1))  # x / (1-x)
    if n == 0:
        return g0
    k = n // 2
    f = g0 * _ratio(q, 2, 1)
    for j in range(k + 1):
        f = f * _ratio(q ** (2 * j + 1), 0, 2)
    if n % 2:
        return f
    return f * _ratio(q ** (2 * k + 1), 1, 0)


def coefficient(n: int, p: int, mu: int) -> Fraction:
    """P(n, p**mu) as the x^mu coefficient of G_n, from the closed form
    truncated at x^mu: x (1-qx^2) / ((1-x)(1-qx)) * prod_{j=0..k} 1/(1-q^(2j+1) x^2)
    is expanded gcd-free in Z[1/p], then scaled by prod_{j=0..k} (1-q^(2j+1)).
    For even n the (1-q^(2k+1) x) / (1-q^(2k+1)) factor cancels the j = k
    term of that scalar."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 0:
        raise ValueError("n must be >= 0")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0:
        return Fraction(0)
    z = ZInvP(p)
    k = n // 2
    s = [z.ZERO] * (mu + 1)
    s[1] = z.ONE
    if mu >= 3:
        s[3] = (-1, 1)  # x - q x^3
    # divide by 1-x, by 1-qx and by each 1-q^(2j+1) x^2: s[m] += q^t s[m-d]
    for d, t in [(1, 0), (1, 1)] + [(2, 2 * j + 1) for j in range(k + 1)]:
        for m in range(d, mu + 1):
            a, e = s[m - d]
            s[m] = z.add(s[m], (a, e + t))
    top = k + n % 2
    num, exp = s[mu]
    if n % 2 == 0:
        a, e = s[mu - 1]
        num, exp = z.add((num, exp), (-a, e + 2 * k + 1))
    for j in range(top):
        num *= z.pow(2 * j + 1) - 1
    return z.fraction((num, exp + top * top))


def verify_functional_eq(n: int, q: Fraction, order: int = 0) -> bool:
    """Check (1 - q^(n+1) x^2) G_n = (1-q)(1 + q^n x) G_{n-1}
    + q (1 - q^(n-1)) G_{n-2} as a cross-multiplied polynomial identity.
    At n = 1 the G_{n-2} coefficient q(1-q^0) vanishes, so G_{-1} is never
    built.  A positive `order` additionally compares truncated series.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = Fraction(q)
    lhs = gf(n, q) * _one_minus(q ** (n + 1), 2)
    rhs = gf(n - 1, q) * _one_minus(-(q**n), 1) * _one_minus(q)
    c = q * (1 - q ** (n - 1))
    if c != 0:
        rhs = rhs + gf(n - 2, q) * RationalFunction((c.numerator,), (c.denominator,))
    if not lhs.equals(rhs):
        return False
    if order > 0 and series(lhs, order) != series(rhs, order):
        return False
    return True


def verify_odd_step(k: int, q: Fraction) -> bool:
    """Check G_{2k+3} = ((1-q^(2k+3)) / (1-q^(2k+3) x^2)) G_{2k+1} as a
    cross-multiplied identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return gf(2 * k + 3, q).equals(gf(2 * k + 1, q) * _ratio(Fraction(q) ** (2 * k + 3), 0, 2))


def verify_even_step(k: int, q: Fraction) -> bool:
    """Check G_{2k} = ((1-q^(2k+1) x) / (1-q^(2k+1))) G_{2k+1} as a
    cross-multiplied identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return gf(2 * k, q).equals(gf(2 * k + 1, q) * _ratio(Fraction(q) ** (2 * k + 1), 1, 0))
