from fractions import Fraction as F

import pytest

from symrank.genfun import (
    RationalFunction,
    _add,
    _mul,
    coefficient,
    gf,
    series,
    verify_even_step,
    verify_functional_eq,
    verify_odd_step,
)

QS = [F(1, 2), F(1, 3), F(1, 5)]
# numerators other than 1, so the denominator clearing is exercised
QS_GENERAL = [F(2, 5), F(3, 7)]
X = (0, 1)


def test_poly_arithmetic():
    a = (1, 2)
    b = (0, 1, 1)
    assert _add(a, b) == (1, 3, 1)
    assert _mul(a, b) == (0, 1, 3, 2)
    assert _add(a, _mul(a, (-1,))) == ()
    assert series(RationalFunction(a, (2,)), 1) == [F(1, 2), 1]  # a / 2
    assert _add((1, 0, 0), ()) == (1,)  # trailing zeros trimmed
    assert series(RationalFunction(a, (1,)), 5) == [1, 2, 0, 0, 0, 0]


def test_rational_function_equality_is_cross_multiplied():
    f = RationalFunction(X, (1, -1))
    g = RationalFunction((0, 2), (2, -2))
    assert f.equals(g)
    assert not f.equals(RationalFunction(X, (1, 1)))


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ValueError):
        RationalFunction(X, ())


def test_gf_zero_is_geometric():
    f = gf(0, F(1, 2))
    assert f.num == X and f.den == (1, -1)
    assert series(f, 4) == [0, 1, 1, 1, 1]


def test_gf_one_simplifies():
    # x (1-q) / ((1-x)(1-qx)) at q = 1/3, times 3/3
    want = RationalFunction((0, 2), _mul((1, -1), (3, -1)))
    assert gf(1, F(1, 3)).equals(want)


def test_series_geometric_and_single_entry():
    assert series(RationalFunction(X, (1, -1)), 4) == [0, 1, 1, 1, 1]
    # P(1, p^mu) = 1 - q^mu
    assert series(gf(1, F(1, 2)), 3) == [0, F(1, 2), F(3, 4), F(7, 8)]


def test_series_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        series(RationalFunction((1,), X), 3)


def test_gf2_matches_brute_forced_values():
    coeffs = series(gf(2, F(1, 2)), 2)
    assert coeffs[1] == F(1, 2)
    assert coeffs[2] == F(11, 16)


def test_series_coefficients_in_unit_interval_and_monotone():
    for q, p in [(F(1, 2), 2), (F(1, 3), 3), (F(1, 5), 5)]:
        for n in range(13):
            coeffs = series(gf(n, q), 12)
            assert all(0 <= c <= 1 for c in coeffs)
            assert all(coeffs[i] <= coeffs[i + 1] for i in range(1, 12))


def test_functional_equation_small_cases():
    assert verify_functional_eq(1, F(1, 2))
    assert verify_functional_eq(2, F(1, 2), order=8)
    assert verify_functional_eq(5, F(1, 3))


@pytest.mark.parametrize("q", QS_GENERAL)
def test_identities_hold_at_general_q(q):
    for n in range(1, 9):
        assert verify_functional_eq(n, q, order=6), (n, q)
    for k in range(4):
        assert verify_odd_step(k, q) and verify_even_step(k, q), (k, q)


@pytest.mark.parametrize("q", QS + QS_GENERAL)
def test_equals_separates_consecutive_gf(q):
    # a vacuous equals would pass every identity check above
    for n in range(8):
        assert not gf(n, q).equals(gf(n + 1, q)), (n, q)


def test_coefficient_helper():
    assert coefficient(2, 2, 2) == F(11, 16)
    with pytest.raises(ValueError):
        coefficient(2, 4, 2)
