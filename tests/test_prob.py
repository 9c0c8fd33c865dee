import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank.arith import pochhammer, t_beta
from symrank.prob import (
    ProbResult,
    det_value_prob,
    limit_interval,
    monotonicity_check,
    monotonicity_violation,
    p_boundary,
    p_explicit,
    p_limit,
    p_recurrence3,
    p_recurrence5,
    probability,
    q_explicit,
    q_limit,
    r_term,
)

# frozen oracle values, each confirmed by exhaustive enumeration in
# test_oracle.py / the acceptance suite
BRUTE = {
    (1, 2): F(1, 2),
    (2, 2): F(1, 2),
    (2, 4): F(11, 16),
    (3, 2): F(7, 16),
    (2, 3): F(2, 3),
    (2, 9): F(70, 81),
    (3, 3): F(52, 81),
    (4, 2): F(7, 16),
}

PRIMES = (2, 3, 5, 7)


def test_boundary_values():
    assert p_boundary(0, 3) == 1
    assert p_boundary(5, 0) == 0
    assert p_boundary(5, -2) == 0
    assert p_boundary(2, 1) is None


def test_recurrence5_known_values():
    assert p_recurrence5(1, 2, 1) == F(1, 2)
    assert p_recurrence5(2, 2, 1) == F(1, 2)
    assert p_recurrence5(2, 2, 2) == F(11, 16)
    assert p_recurrence5(3, 2, 1) == F(7, 16)


def test_recurrence3_known_values():
    assert p_recurrence3(3, 2, 1) == F(7, 16)  # (1-q^3) P(1,2) = (7/8)(1/2)
    assert p_recurrence3(2, 3, 1) == F(2, 3)
    assert p_recurrence3(0, 5, 3) == 1


def test_explicit_known_values():
    assert p_explicit(2, 3, 1) == pochhammer(2, F(1, 3)) / pochhammer(1, F(1, 9))
    assert p_explicit(2, 3, 1) == F(2, 3)
    assert p_explicit(2, 2, 2) == F(11, 16)
    assert p_explicit(1, 5, 3) == F(124, 125)  # 1 - q^mu


def test_all_routes_match_frozen_oracles():
    for (n, m), want in BRUTE.items():
        for route in ("recurrence5", "recurrence3", "explicit", "genfun"):
            assert probability(n, m, route).value_P == want, (n, m, route)


def test_q_explicit_values():
    assert q_explicit(2, 2, 1) == F(1, 2)
    assert q_explicit(2, 3, 1) == F(1, 3)
    assert q_explicit(1, 5, 3) == F(1, 125)  # q^mu, R = 0 at k = 0


def test_q_is_complement_of_p():
    for p in PRIMES:
        for n in range(1, 12):
            for mu in range(1, 6):
                assert q_explicit(n, p, mu) == 1 - p_explicit(n, p, mu)


def test_r_term_values():
    assert r_term(1, 2, 4) == 0
    assert r_term(1, 7, 1) == 0
    # single j=0 term: q^(s+1) (q^mu (1-q^n) - q^(2s+2) (1-q)) = 1/8,
    # pinned by the brute-forced Q(2,2) = 1/2 through Q = (q(1-q^2) - R)/(1-q)
    assert r_term(2, 2, 1) == F(1, 8)
    assert (q_explicit(2, 2, 1) * (1 - F(1, 2))) == F(1, 2) * F(3, 4) - r_term(2, 2, 1)


def test_even_odd_bridge():
    # P(2k, p^mu) - P(2k+1, p^mu) = q^(2k+mu) Pi_2k(q)/Pi_k(q^2) T_1(k, s)
    for p in (2, 3, 5):
        q = F(1, p)
        for k in range(1, 6):
            for mu in range(1, 6):
                s = (mu - 1) // 2
                gap = p_explicit(2 * k, p, mu) - p_explicit(2 * k + 1, p, mu)
                want = q ** (2 * k + mu) * pochhammer(2 * k, q) / pochhammer(k, q * q) * t_beta(1, k, s, q)
                assert gap == want


def _q(n, m):
    return probability(n, m).value_Q


def test_q_multiplicative():
    assert _q(2, 12) == _q(2, 4) * _q(2, 3) == F(5, 48)
    assert _q(1, 6) == F(1, 6)
    assert _q(2, 9) == q_explicit(2, 3, 2)
    for m1, m2 in [(4, 3), (2, 9), (5, 8), (4, 9)]:
        for n in range(1, 5):
            assert _q(n, m1 * m2) == _q(n, m1) * _q(n, m2)


def test_probability_rejects_bad_modulus():
    with pytest.raises(ValueError):
        probability(2, 1)
    with pytest.raises(ValueError):
        probability(-1, 4)


def test_probability_result_invariants():
    res = probability(3, 12)
    assert isinstance(res, ProbResult)
    assert res.value_P + res.value_Q == 1
    assert res.route == "multiplicative"
    assert probability(3, 8).route == "explicit"
    assert probability(0, 7).value_P == 1


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=2, max_value=60))
@settings(deadline=None)
def test_probability_routes_agree_any_modulus(n, m):
    vals = {r: probability(n, m, r).value_P for r in ("recurrence5", "recurrence3", "explicit", "genfun")}
    assert len(set(vals.values())) == 1


def test_limit_enclosures():
    eps = F(1, 10**9)
    enc = p_limit(2, 1, eps)
    assert enc.width <= eps
    assert abs(float(enc.lower) - 0.4194224417) < 1e-9
    qenc = q_limit(2, 1, eps)
    assert abs(float(qenc.upper) - 0.5805775583) < 1e-9
    box = limit_interval(2, 1)
    assert (box.lower, box.upper) == (F(1, 2), F(1, 1))
    assert box.lower <= qenc.lower and qenc.upper <= box.upper


def test_limit_interval_examples():
    qenc = q_limit(3, 2, F(1, 10**6))
    assert F(1, 9) <= qenc.lower and qenc.upper <= F(1, 6)


def test_limit_rejects_bad_mu():
    with pytest.raises(ValueError):
        p_limit(2, 0, F(1, 100))


def test_exact_q_approaches_limit_monotonically():
    qenc = q_limit(2, 1, F(1, 10**9))
    vals = [_q(n, 2) for n in (10, 20, 30)]
    assert vals[0] <= vals[1] <= vals[2] <= qenc.upper
    dists = [qenc.lower - v for v in vals]
    assert dists[0] >= dists[1] >= dists[2] >= 0


def test_det_value_prob_examples():
    assert det_value_prob(2, 3, 1) == F(2, 9)
    assert det_value_prob(2, 3, 2) == F(4, 9)
    assert det_value_prob(1, 3, 1) == F(1, 3)
    assert det_value_prob(2, 2, 1) == F(1, 2)
    assert det_value_prob(2, 5, 1) == F(6, 25)
    assert det_value_prob(2, 5, 2) == F(4, 25)


def test_det_value_prob_rejects_zero_residue():
    with pytest.raises(ValueError):
        det_value_prob(2, 3, 3)
    with pytest.raises(ValueError):
        det_value_prob(2, 4, 1)


def test_det_value_sum_rule():
    for p in PRIMES:
        for n in range(1, 9):
            total = sum(det_value_prob(n, p, d) for d in range(1, p))
            assert total + q_explicit(n, p, 1) == 1


def test_monotonicity():
    assert monotonicity_check(20, 2, 8)
    assert monotonicity_violation(20, 3, 6) is None
    assert p_recurrence5(2, 2, 1) >= p_recurrence5(3, 2, 1)
    assert p_recurrence5(2, 2, 1) <= p_recurrence5(2, 2, 2)


def _over_power_of(x, p):
    # compares with p**e near log_p(den), not by repeated division: that is
    # quadratic in the size of den, and den has ~400k bits at (1001, 3, 1)
    den = x.denominator
    e = round(math.log2(den) / math.log2(p))
    return any(p**k == den for k in (e - 1, e, e + 1) if k >= 0)


def test_long_chain_recurrences_agree():
    # the recursive recurrences overflowed the interpreter stack here
    v5 = p_recurrence5(600, 2, 1)
    assert v5 == p_recurrence3(600, 2, 1)
    assert 0 < v5 < 1 and _over_power_of(v5, 2)


def test_long_chain_recurrence3_matches_genfun():
    from symrank.genfun import coefficient

    v3 = p_recurrence3(1001, 3, 1)
    assert v3 == coefficient(1001, 3, 1)
    assert 0 < v3 < 1 and _over_power_of(v3, 3)


@pytest.mark.parametrize("n,p,mu", [(236, 2, 20), (199, 3, 15), (163, 5, 19)])
def test_deep_points_all_routes_match_t_beta_form(n, p, mu):
    want = p_explicit(n, p, mu)
    for route in ("recurrence5", "recurrence3", "explicit", "genfun"):
        assert probability(n, p**mu, route).value_P == want, route


@given(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(deadline=None)
def test_routes_agree_in_z_inv_p(n, mu, p):
    vals = {r: probability(n, p**mu, r).value_P for r in ("recurrence5", "recurrence3", "explicit", "genfun")}
    assert len(set(vals.values())) == 1
    v = vals["explicit"]
    assert 0 < v < 1 and _over_power_of(v, p)
