"""Generating functions for the nonsingularity probabilities.

For fixed prime p (q = 1/p), the series sum_{mu>=1} P(n, p**mu) x**mu is a
rational function of x with the closed forms

    G_0(x)      = x / (1-x)
    G_{2k+1}(x) = (x/(1-x)) ((1-q x^2)/(1-q x))
                  * prod_{j=0..k} (1-q^(2j+1)) / (1-q^(2j+1) x^2)
    G_{2k}(x)   = G_{2k+1}(x) * (1-q^(2k+1) x) / (1-q^(2k+1)).

Polynomials are dense with exact Fraction coefficients; rational functions
are never reduced, and equality means cross-multiplied polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ZInvP, is_prime

# a truncated power series is just its coefficient list, index = exponent
PowerSeries = list[Fraction]


class Poly:
    """Immutable dense polynomial over Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self or not other:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(a * c for a in self.coeffs)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


ONE = Poly((1,))
X = Poly((0, 1))


def _lin(c) -> Poly:
    """1 - c*x"""
    return Poly((1, -Fraction(c)))


def _quad(c) -> Poly:
    """1 - c*x^2"""
    return Poly((1, 0, -Fraction(c)))


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials; den is nonzero and (for our use) has a
    nonzero constant term so a series expansion at 0 exists."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if not self.den:
            raise ValueError("zero denominator")

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def scale(self, c) -> "RationalFunction":
        return RationalFunction(self.num.scale(c), self.den)

    def equals(self, other: "RationalFunction") -> bool:
        """Identity as rational functions: num1*den2 == num2*den1."""
        return self.num * other.den == other.num * self.den


def series(f: RationalFunction, order: int) -> PowerSeries:
    """Exact coefficients of x^0..x^order by long division at x = 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    den = f.den.coeffs
    if not den or den[0] == 0:
        raise ValueError("denominator has zero constant term; no expansion at 0")
    inv0 = 1 / Fraction(den[0])
    out: PowerSeries = []
    for k in range(order + 1):
        acc = f.num.coeff(k)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc * inv0)
    return out


def gf(n: int, q: Fraction) -> RationalFunction:
    """The generating function G_n(x) for base q = 1/p, unreduced."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = Fraction(q)
    if n == 0:
        return RationalFunction(X, _lin(1))
    k = (n - 1) // 2 if n % 2 else n // 2
    num = X * _quad(q)
    den = _lin(1) * _lin(q)
    for j in range(k + 1):
        num = num.scale(1 - q ** (2 * j + 1))
        den = den * _quad(q ** (2 * j + 1))
    odd = RationalFunction(num, den)
    if n % 2:
        return odd
    c = q ** (2 * k + 1)
    return odd * RationalFunction(_lin(c), ONE.scale(1 - c))


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
    lhs = gf(n, q) * RationalFunction(_quad(q ** (n + 1)), ONE)
    rhs = gf(n - 1, q) * RationalFunction(_lin(-(q**n)).scale(1 - q), ONE)
    c = q * (1 - q ** (n - 1))
    if c != 0:
        rhs = rhs + gf(n - 2, q).scale(c)
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
    q = Fraction(q)
    c = q ** (2 * k + 3)
    lhs = gf(2 * k + 3, q) * RationalFunction(_quad(c), ONE)
    rhs = gf(2 * k + 1, q).scale(1 - c)
    return lhs.equals(rhs)


def verify_even_step(k: int, q: Fraction) -> bool:
    """Check G_{2k} = ((1-q^(2k+1) x) / (1-q^(2k+1))) G_{2k+1} as a
    cross-multiplied identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    q = Fraction(q)
    c = q ** (2 * k + 1)
    lhs = gf(2 * k, q).scale(1 - c)
    rhs = gf(2 * k + 1, q) * RationalFunction(_lin(c), ONE)
    return lhs.equals(rhs)
