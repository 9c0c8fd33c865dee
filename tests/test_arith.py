import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank.arith import (
    BoundedValue,
    PrimePower,
    ZInvP,
    factorize,
    is_prime,
    legendre,
    pochhammer,
    pochhammer_infinite,
    t1_alt,
    t3_alt,
    t_beta,
)

QS = [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]


def test_pochhammer_empty_product():
    assert pochhammer(0, F(1, 2)) == 1


def test_pochhammer_direct_expansion():
    assert pochhammer(2, F(1, 2)) == F(3, 8)  # (1/2)(3/4)
    assert pochhammer(3, F(1, 3)) == F(416, 729)  # (2/3)(8/9)(26/27)


@given(st.integers(min_value=0, max_value=20), st.sampled_from(QS))
def test_pochhammer_matches_naive_product(n, q):
    naive = F(1)
    for j in range(1, n + 1):
        naive *= 1 - q**j
    assert pochhammer(n, q) == naive


def test_pochhammer_strictly_decreasing_in_n():
    for q in QS:
        lower = pochhammer_infinite(q, F(1, 10**6)).lower
        prev = F(1)
        for n in range(1, 12):
            cur = pochhammer(n, q)
            assert cur < prev
            assert lower < cur <= 1
            prev = cur


def test_pochhammer_infinite_half():
    enc = pochhammer_infinite(F(1, 2), F(1, 10**6))
    assert enc.width <= F(1, 10**6)
    # oracle: truncate much deeper; the tail shrinks the value by < 2^-59
    deep = pochhammer(60, F(1, 2))
    assert enc.lower <= deep <= enc.upper + F(1, 2**55)
    assert abs(float(enc.lower) - 0.2887880951) < 1e-9


def test_pochhammer_infinite_quarter():
    enc = pochhammer_infinite(F(1, 4), F(1, 10**6))
    assert enc.width <= F(1, 10**6)
    assert abs(float(enc.lower) - 0.6885375371) < 1e-9


@given(st.sampled_from(QS), st.integers(min_value=1, max_value=12))
def test_pochhammer_infinite_width_contract(q, k):
    eps = F(1, 10**k)
    enc = pochhammer_infinite(q, eps)
    assert enc.width <= eps
    assert 0 < enc.lower <= enc.upper <= 1


def test_pochhammer_infinite_rejects_bad_q():
    with pytest.raises(ValueError):
        pochhammer_infinite(F(0), F(1, 100))
    with pytest.raises(ValueError):
        pochhammer_infinite(F(1), F(1, 100))
    with pytest.raises(ValueError):
        pochhammer_infinite(F(3, 2), F(1, 100))


def test_t_beta_k_zero_is_one():
    assert t_beta(1, 0, 5, F(1, 2)) == 1
    assert t_beta(3, 0, 0, F(1, 7)) == 1


def test_t_beta_single_term():
    assert t_beta(1, 1, 0, F(1, 2)) == 1


def test_t_beta_small_value():
    # k=1 collapses the product ratio, leaving 1 + q^3
    assert t_beta(3, 1, 1, F(1, 2)) == F(9, 8)


def test_t_beta_matches_naive_sum():
    for q in QS:
        q2 = q * q
        for k in range(4):
            for s in range(4):
                if k == 0:
                    want = F(1)
                else:
                    want = sum(
                        q ** (3 * j)
                        * pochhammer(k + j - 1, q2)
                        / (pochhammer(j, q2) * pochhammer(k - 1, q2))
                        for j in range(s + 1)
                    )
                assert t_beta(3, k, s, q) == want


def test_alt_forms_trivial_points():
    assert t1_alt(0, 0, F(1, 2)) == 1
    assert t1_alt(1, 0, F(1, 2)) == 1
    assert t3_alt(1, 1, F(1, 2)) == F(9, 8)


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(QS),
)
def test_alt_forms_agree_with_sums(k, s, q):
    assert t_beta(1, k, s, q) == t1_alt(k, s, q)
    assert t_beta(3, k, s, q) == t3_alt(k, s, q)


def test_legendre_basics():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1
    assert legendre(4, 5) == 1
    assert legendre(10, 5) == 0
    assert legendre(-1, 5) == 1  # 2^2 = 4 = -1 mod 5


def test_legendre_rejects_bad_p():
    with pytest.raises(ValueError):
        legendre(1, 2)
    with pytest.raises(ValueError):
        legendre(1, 9)


def test_legendre_counts_residues():
    for p in (3, 5, 7, 11):
        residues = {x * x % p for x in range(1, p)}
        for d in range(1, p):
            assert legendre(d, p) == (1 if d in residues else -1)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from([3, 5, 7, 11, 13]),
)
def test_legendre_multiplicative(d, e, p):
    if d % p == 0 or e % p == 0:
        return
    assert legendre(d, p) * legendre(e, p) == legendre(d * e, p)


def test_factorize_examples():
    assert [(f.p, f.mu) for f in factorize(12)] == [(2, 2), (3, 1)]
    assert [(f.p, f.mu) for f in factorize(8)] == [(2, 3)]
    assert [(f.p, f.mu) for f in factorize(97)] == [(97, 1)]


def test_factorize_rejects_small():
    for m in (-4, 0, 1):
        with pytest.raises(ValueError):
            factorize(m)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_roundtrip(m):
    factors = factorize(m)
    assert math.prod(f.value for f in factors) == m
    assert [f.p for f in factors] == sorted({f.p for f in factors})
    assert all(is_prime(f.p) and f.mu >= 1 for f in factors)


def test_prime_power_validation():
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(5, 0)
    assert PrimePower(3, 4).value == 81


def test_bounded_value_invariant():
    with pytest.raises(ValueError):
        BoundedValue(F(1), F(0))
    b = BoundedValue(F(1, 4), F(1, 2))
    assert b.width == F(1, 4)
    assert b.contains(F(1, 3))
    assert not b.contains(F(2, 3))
    c = b.complement_from_one()
    assert (c.lower, c.upper) == (F(1, 2), F(3, 4))


def test_z_inv_p_pairs():
    z = ZInvP(3)
    assert z.fraction(z.add((1, 2), (2, 1), z.ZERO)) == F(7, 9)
    assert z.add(z.ZERO, z.ZERO) == z.ZERO
    assert z.fraction((5, -2)) == 45
    # (1 - q^2) / (1 - q) = 1 + q, exact in Z[1/3]
    assert z.fraction(z.div_one_minus_q((8, 2), 1)) == F(4, 3)
    with pytest.raises(ArithmeticError):
        z.div_one_minus_q(z.ONE, 1)  # 1 / (1 - 1/3) = 3/2 is not in Z[1/3]
    big = ZInvP.POW_CACHE + 5
    assert z.pow(big) == 3**big and z.pow(7) == 3**7
