"""Probability that a random n x n symmetric matrix over Z_m is nonsingular
mod m, through four independent routes.

P(n, m) is the probability of full m-rank, Q(n, m) = 1 - P(n, m) the
probability that det(A) = 0 mod m.  For a prime power p**mu we write
q = 1/p, k = floor(n/2) and s = floor((mu-1)/2); Q is multiplicative over
coprime factors of m.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    BoundedValue,
    ZInvP,
    factorize,
    is_prime,
    legendre,
    pochhammer,
    pochhammer_infinite,
    t_beta,
)

ROUTES = ("recurrence5", "recurrence3", "explicit", "genfun")


@dataclass(frozen=True)
class ProbResult:
    value_P: Fraction
    value_Q: Fraction
    route: str

    def __post_init__(self) -> None:
        if self.value_P + self.value_Q != 1:
            raise ValueError("P + Q must equal 1 exactly")
        if not 0 <= self.value_P <= 1:
            raise ValueError("P must lie in [0, 1]")


def p_boundary(n: int, mu: int) -> Fraction | None:
    """Boundary values: 1 for n = 0 with mu > 0, 0 for mu <= 0, else None."""
    if mu <= 0:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    return None


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _p5_rows(n_max: int, mu_max: int, z: ZInvP) -> Iterator[list[tuple[int, int]]]:
    """Rows P(n, p**m), m = 0..mu_max, for n = 0..n_max, bottom-up in n,
    holding three rows at a time.  Entries are ZInvP pairs."""
    p1 = z.p - 1
    row = [z.ZERO] + [z.ONE] * mu_max
    yield row
    prev2 = prev = row
    for n in range(1, n_max + 1):
        row = [z.ZERO]
        c2 = z.pow(n - 1) - 1  # 0 at n = 1, where P(n-2) does not exist
        for m in range(1, mu_max + 1):
            a1, e1 = prev[m]
            a2, e2 = prev2[m]
            a3, e3 = prev[m - 1]
            a4, e4 = row[m - 2] if m >= 2 else z.ZERO
            row.append(z.add(
                (p1 * a1, e1 + 1),
                (c2 * a2, e2 + n),
                (p1 * a3, e3 + n + 1),
                (a4, e4 + n + 1),
            ))
        yield row
        prev2, prev = prev, row


def p_recurrence5(n: int, p: int, mu: int) -> Fraction:
    """P(n, p**mu) by the five-term recurrence

    P(n,mu) = (1-q) P(n-1,mu) + q(1-q^(n-1)) P(n-2,mu)
            + q^n (1-q) P(n-1,mu-1) + q^(n+1) P(n,mu-2),

    evaluated bottom-up and gcd-free over the O(n*mu) subproblems.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_prime(p)
    b = p_boundary(n, mu)
    if b is not None:
        return b
    z = ZInvP(p)
    for row in _p5_rows(n, mu, z):
        pass
    return z.fraction(row[mu])


def p_recurrence3(n: int, p: int, mu: int) -> Fraction:
    """P(n, p**mu) by the three-term odd-n recurrence

    P(n,mu) = (1-q^n) P(n-2,mu) + q^n P(n,mu-2)       (n odd, >= 3)

    with even n recovered from the next odd value:
    P(n,mu) = (P(n+1,mu) - q^(n+1) P(n+1,mu-1)) / (1 - q^(n+1)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_prime(p)
    b = p_boundary(n, mu)
    if b is not None:
        return b
    z = ZInvP(p)
    # odd n needs only the parity of mu; even n needs mu and mu - 1
    ms = range(2 - mu % 2, mu + 1, 2) if n % 2 else range(1, mu + 1)
    # row[m] = P(n', p**m) at the current odd n', seeded by P(1, p**m) = 1 - q**m
    row = [z.ZERO] * (mu + 1)
    for m in ms:
        row[m] = (z.pow(m) - 1, m)
    for n_odd in range(3, (n | 1) + 1, 2):
        c = z.pow(n_odd) - 1
        for m in ms:
            a, e = row[m]
            num, exp = z.add((c * a, e), row[m - 2] if m >= 2 else z.ZERO)
            row[m] = (num, exp + n_odd)
    if n % 2:
        return z.fraction(row[mu])
    a, e = row[mu - 1]
    return z.fraction(z.div_one_minus_q(z.add(row[mu], (-a, e + n + 1)), n + 1))


def _check_interior(n: int, p: int, mu: int) -> None:
    _check_prime(p)
    if n < 1 or mu < 1:
        raise ValueError("explicit formulas need n >= 1 and mu >= 1")


def p_explicit(n: int, p: int, mu: int) -> Fraction:
    """Explicit solution, valid for either parity of n:

    P = Pi_{2k}(q) / ((1-q) Pi_k(q^2))
        * ((1-q^(2k+1)) T_3(k,s) - q^mu (1-q^n) T_1(k,s)).
    """
    _check_interior(n, p, mu)
    q = Fraction(1, p)
    k = n // 2
    s = (mu - 1) // 2
    return (
        pochhammer(2 * k, q)
        / ((1 - q) * pochhammer(k, q * q))
        * (
            (1 - q ** (2 * k + 1)) * t_beta(3, k, s, q)
            - q**mu * (1 - q**n) * t_beta(1, k, s, q)
        )
    )


def _r_pair(n: int, mu: int, z: ZInvP) -> tuple[int, int]:
    """R of `r_term` as a ZInvP pair.  The product ratio of term j is
    w_j = A_j B_j with A_j = Pi_{2j}(q)/Pi_j(q^2) = prod_{i<j} (1-q^(2i+1))
    and the Gaussian binomial B_j = Pi_{j+s}(q^2)/(Pi_j(q^2) Pi_s(q^2)), so
    step j multiplies by (1-q^(2j-1)) (1-q^(2(j+s))) and divides exactly by
    (1-q^(2j))."""
    k = n // 2
    s = (mu - 1) // 2
    lead = (z.pow(n) - 1, mu + n)  # q^mu (1-q^n)
    total = z.ZERO
    w = z.ONE
    for j in range(k):
        if j:
            a, e = w
            a *= (z.pow(2 * j - 1) - 1) * (z.pow(2 * (j + s)) - 1)
            w = z.div_one_minus_q((a, e + 2 * j - 1 + 2 * (j + s)), 2 * j)
        c, f = z.add(lead, (1 - z.pow(2 * j + 1), 2 * s + 2 * j + 3))
        total = z.add(total, (c * w[0], f + 2 * j + w[1]))
    return total[0], total[1] + s + 1


def r_term(n: int, p: int, mu: int) -> Fraction:
    """The correction term R in Q = (q^mu (1-q^n) - R) / (1-q):

    R = q^(s+1) * sum_{j=0..k-1} (q^mu (1-q^n) - q^(2s+2) (1-q^(2j+1)))
        * q^(2j) * Pi_{2j}(q) Pi_{j+s}(q^2) / (Pi_j(q^2)^2 Pi_s(q^2)).

    Satisfies 0 <= R < q^(3mu/2), with R = 0 exactly when k = 0.
    """
    _check_interior(n, p, mu)
    z = ZInvP(p)
    return z.fraction(_r_pair(n, mu, z))


def q_explicit(n: int, p: int, mu: int) -> Fraction:
    """Q(n, p**mu) = (q^mu (1-q^n) - R) / (1-q), numerically convenient
    because it avoids the cancellation in 1 - P."""
    _check_interior(n, p, mu)
    z = ZInvP(p)
    r, e = _r_pair(n, mu, z)
    return z.fraction(z.div_one_minus_q(z.add((z.pow(n) - 1, mu + n), (-r, e)), 1))


def p_limit(p: int, mu: int, eps: Fraction) -> BoundedValue:
    """Enclosure of lim_{n->inf} P(n, p**mu), width <= eps:

    lim P = Pi_inf(q) / ((1-q) Pi_inf(q^2)) * sum_{j=0..s} (q^(3j) - q^(mu+j)) / Pi_j(q^2)

    evaluated with rigorous product enclosures; the finite sum is exact.
    """
    _check_prime(p)
    if mu < 1:
        raise ValueError("mu must be >= 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    q = Fraction(1, p)
    q2 = q * q
    s = (mu - 1) // 2
    total = Fraction(0)
    for j in range(s + 1):
        total += (q ** (3 * j) - q ** (mu + j)) / pochhammer(j, q2)
    scale = total / (1 - q)  # positive: 3j < mu + j for j <= s
    inner = eps / 4
    while True:
        num = pochhammer_infinite(q, inner)
        den = pochhammer_infinite(q2, inner)
        lower = scale * num.lower / den.upper
        upper = scale * num.upper / den.lower
        if upper - lower <= eps:
            return BoundedValue(lower, upper)
        inner /= 4


def q_limit(p: int, mu: int, eps: Fraction) -> BoundedValue:
    """Enclosure of lim_{n->inf} Q(n, p**mu); lies in [q^mu, q^mu/(1-q)]."""
    return p_limit(p, mu, eps).complement_from_one()


def limit_interval(p: int, mu: int) -> BoundedValue:
    """The a-priori interval [q^mu, q^mu/(1-q)] bracketing lim Q(n, p**mu)."""
    _check_prime(p)
    if mu < 1:
        raise ValueError("mu must be >= 1")
    q = Fraction(1, p)
    return BoundedValue(q**mu, q**mu / (1 - q))


def det_value_prob(n: int, p: int, d: int) -> Fraction:
    """Probability that det(A) = d mod p (mu = 1) for a nonzero residue d:

    (q/(1-q)) * Pi_{2k}(q) / Pi_k(q^2) * (1 + sign_s * q^k),  k = ceil(n/2),

    where sign_s = 0 if p = 2 or n is odd, else (d|p) * (-1)^(k(p-1)/2).
    Note k here is the ceiling, unlike the floor used by the P/Q formulas.
    """
    _check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if d % p == 0:
        raise ValueError("d must be nonzero mod p; residue 0 carries mass Q(n, p)")
    q = Fraction(1, p)
    k = (n + 1) // 2
    if p == 2 or n % 2 == 1:
        sign_s = 0
    else:
        sign_s = legendre(d, p) * (-1) ** (k * (p - 1) // 2)
    return q / (1 - q) * pochhammer(2 * k, q) / pochhammer(k, q * q) * (1 + sign_s * q**k)


def monotonicity_violation(n_max: int, p: int, mu_max: int) -> tuple[int, int, str] | None:
    """The first grid point (n, mu), n <= n_max and mu <= mu_max, in row
    order, where P(n+1, p^mu) <= P(n, p^mu) <= P(n, p^(mu+1)) fails, with
    which side fails ("n" or "mu"); None when both hold everywhere."""
    if n_max < 1 or mu_max < 1:
        raise ValueError("grid bounds must be >= 1")
    _check_prime(p)
    z = ZInvP(p)
    table = [[z.fraction(x) for x in row] for row in _p5_rows(n_max + 1, mu_max + 1, z)]
    for n in range(n_max + 1):
        for mu in range(mu_max + 1):
            here = table[n][mu]
            if table[n + 1][mu] > here:
                return n, mu, "n"
            if here > table[n][mu + 1]:
                return n, mu, "mu"
    return None


def monotonicity_check(n_max: int, p: int, mu_max: int) -> bool:
    """True iff P(n+1, p^mu) <= P(n, p^mu) <= P(n, p^(mu+1)) holds at every
    grid point with n <= n_max, mu <= mu_max."""
    return monotonicity_violation(n_max, p, mu_max) is None


def _p_prime_power(n: int, p: int, mu: int, route: str) -> Fraction:
    if route == "recurrence5":
        return p_recurrence5(n, p, mu)
    if route == "recurrence3":
        return p_recurrence3(n, p, mu)
    if route == "explicit":
        return 1 - q_explicit(n, p, mu)
    if route == "genfun":
        from . import genfun

        return genfun.coefficient(n, p, mu)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def probability(n: int, m: int, route: str = "explicit") -> ProbResult:
    """P and Q for any modulus m >= 2, computed factor-wise: Q(n, m) is the
    product of the prime-power Q values, and P = 1 - Q."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    factors = factorize(m)
    if n == 0:
        return ProbResult(Fraction(1), Fraction(0), route)
    value_q = Fraction(1)
    for pp in factors:
        value_q *= 1 - _p_prime_power(n, pp.p, pp.mu, route)
    result_route = route if len(factors) == 1 else "multiplicative"
    return ProbResult(1 - value_q, value_q, result_route)
