"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything asserted here is exact rational equality unless a tolerance is
stated inline.
"""

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from symrank.arith import pochhammer, t1_alt, t3_alt, t_beta
from symrank.cli import ORACLE_GRID, SUITES
from symrank.genfun import coefficient, gf, series
from symrank.oracle import exhaustive, monte_carlo
from symrank.prob import p5_table, p_explicit, p_recurrence3, p_recurrence5, probability, q_limit
from symrank.symmat import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    SymMatrix,
    classify_case,
    det_mod,
    eliminate_case1,
    eliminate_case2,
    eliminate_case3,
    reduce_case4,
)

GRID_PRIMES = (2, 3, 5, 7)
GRID_N = 30
GRID_MU = 8


def all_symmetric(n, m):
    for combo in itertools.product(range(m), repeat=n * (n + 1) // 2):
        yield SymMatrix(n, m, combo)


def run_suite(name):
    """Run one `verify` suite on the acceptance grid; it must yield only PASS lines."""
    for line in SUITES[name](GRID_PRIMES, GRID_N, GRID_MU):
        assert line.startswith(f"PASS {name}: "), line


def test_criterion_01_crossroute_exactness():
    run_suite("crossroute")
    for p in GRID_PRIMES:
        table = p5_table(GRID_N, p, GRID_MU)
        for mu in range(1, GRID_MU + 1):
            # probability() answers n = 0 without calling a route
            assert p_recurrence5(0, p, mu) == p_recurrence3(0, p, mu) == coefficient(0, p, mu) == 1
        for n in range(GRID_N + 1):
            coeffs = series(gf(n, F(1, p)), GRID_MU)
            for mu in range(1, GRID_MU + 1):
                assert coeffs[mu] == table[n][mu], (n, p, mu)
                if n >= 1:
                    assert p_explicit(n, p, mu) == table[n][mu], (n, p, mu)
    print(
        "\nPASS criterion 1: recurrence5 = recurrence3 = explicit = genfun "
        f"exactly for n<={GRID_N}, mu<={GRID_MU}, p in {GRID_PRIMES}"
    )


def test_criterion_02_oracle_equivalence():
    run_suite("oracle")
    reports = {(n, m): exhaustive(n, m) for n, m in [(2, 2), (3, 2), (2, 4), (2, 12)]}
    assert reports[(2, 2)].full_rank_count == 4 and reports[(2, 2)].total == 8
    assert reports[(3, 2)].full_rank_count == 28 and reports[(3, 2)].total == 64
    assert reports[(2, 4)].full_rank_count == 44 and reports[(2, 4)].total == 64
    assert F(reports[(2, 12)].total - reports[(2, 12)].full_rank_count, reports[(2, 12)].total) == F(5, 48)
    assert probability(2, 12).value_Q == F(5, 48)
    print(f"\nPASS criterion 2: formula = exhaustive count on {len(ORACLE_GRID)} grid points")


def _check_congruences(n, m, p, mu):
    """The per-case determinant congruence for every matrix mod p**mu."""
    for A in all_symmetric(n, m):
        case = classify_case(A)
        d = det_mod(A)
        if case == CASE1:
            step = eliminate_case1(A)
            assert d == step.pivot_factor * det_mod(step.residual) % m
        elif case == CASE2:
            if n > 2:
                step = eliminate_case2(A)
                assert d == step.pivot_factor * det_mod(step.residual) % m
            else:
                # terminal 2x2: the matrix is its own pivot block, a unit det
                block = (A.entry(0, 0) * A.entry(1, 1) - A.entry(0, 1) ** 2) % m
                assert d == block and d % p != 0
        elif case == CASE3:
            step = eliminate_case3(A)
            assert d == step.pivot_factor * det_mod(step.residual) % m
        else:
            if mu >= 2:
                step = reduce_case4(A)
                assert d == step.pivot_factor * det_mod(step.residual) % m
            else:
                assert d % p == 0  # boundary: always singular mod p


def test_criterion_03_case_analysis():
    # (n=2, m=4): all four case fractions match 1-q, q(1-q^(n-1)),
    # q^n(1-q), q^(n+1) exactly
    q = F(1, 2)
    counts = Counter(classify_case(A) for A in all_symmetric(2, 4))
    total = 64
    assert F(counts[CASE1], total) == 1 - q
    assert F(counts[CASE2], total) == q * (1 - q)
    assert F(counts[CASE3], total) == q**2 * (1 - q)
    assert F(counts[CASE4], total) == q**3
    assert sum(counts.values()) == total

    # (n=3, m=2): mu=1, so the mod-p^2 distinction between cases 3 and 4
    # does not exist in the sample space; their combined mass is q^n and
    # cases 1 and 2 match their formulas exactly
    counts = Counter(classify_case(A) for A in all_symmetric(3, 2))
    total = 64
    assert F(counts[CASE1], total) == 1 - q
    assert F(counts[CASE2], total) == q * (1 - q**2)
    assert F(counts[CASE3] + counts[CASE4], total) == q**3 == q**3 * (1 - q) + q**4
    assert sum(counts.values()) == total

    # (n=3, m=4): a mu>=2 point of the same dimension recovers the full
    # four-way split
    counts = Counter(classify_case(A) for A in all_symmetric(3, 4))
    total = 4096
    assert F(counts[CASE1], total) == 1 - q
    assert F(counts[CASE2], total) == q * (1 - q**2)
    assert F(counts[CASE3], total) == q**3 * (1 - q)
    assert F(counts[CASE4], total) == q**4

    # determinant congruences hold for every enumerated matrix
    _check_congruences(2, 4, 2, 2)
    _check_congruences(3, 2, 2, 1)
    print(
        "\nPASS criterion 3: case tallies match (four-way at mu>=2, merged "
        "3+4 mass at mu=1) and every per-case determinant congruence holds"
    )


@pytest.mark.xfail(
    strict=True,
    reason="at mu=1 no classifier of matrices mod p can realize the "
    "q^n(1-q) / q^(n+1) sub-split: the distinguishing event lives mod p^2; "
    "the combined mass q^n is verified in test_criterion_03_case_analysis",
)
def test_criterion_03_literal_four_way_split_at_mu1():
    q = F(1, 2)
    counts = Counter(classify_case(A) for A in all_symmetric(3, 2))
    assert F(counts[CASE3], 64) == q**3 * (1 - q)
    assert F(counts[CASE4], 64) == q**4


def test_criterion_04_t_beta_identities():
    for q in (F(1, 2), F(1, 3), F(1, 5), F(1, 7)):
        for k in range(9):
            for s in range(9):
                assert t_beta(1, k, s, q) == t1_alt(k, s, q), (k, s, q)
                assert t_beta(3, k, s, q) == t3_alt(k, s, q), (k, s, q)
    print("\nPASS criterion 4: t_beta = alternate forms exactly for k,s <= 8, q in {1/2,1/3,1/5,1/7}")


def test_criterion_05_remainder_bound():
    run_suite("bounds")
    print("\nPASS criterion 5: 0 <= R and R^2 < q^(3mu) on the grid, R = 0 iff floor(n/2) = 0")


def test_criterion_06_monotonicity():
    run_suite("monotone")
    print(
        "\nPASS criterion 6: P(n+1,p^mu) <= P(n,p^mu) <= P(n,p^(mu+1)) "
        f"exactly for n<={GRID_N}, mu<={GRID_MU}, p in {GRID_PRIMES}"
    )


def _product_enclosure(q, terms):
    """Independent truncation oracle: [prod_N * (1 - tail), prod_N]."""
    prod = pochhammer(terms, q)
    tail = q ** (terms + 1) / (1 - q)
    return prod * (1 - tail), prod


def test_criterion_07_limit_enclosure():
    eps = F(1, 10**9)
    qenc = q_limit(2, 1, eps)
    assert qenc.width <= eps

    # oracle: 1 - prod(1/2)/prod(1/4) from truncated products with tail bounds
    lo1, hi1 = _product_enclosure(F(1, 2), 150)
    lo2, hi2 = _product_enclosure(F(1, 4), 80)
    oracle_lo = 1 - hi1 / lo2
    oracle_hi = 1 - lo1 / hi2
    assert oracle_hi - oracle_lo < F(1, 10**12)
    assert qenc.lower <= oracle_hi and oracle_lo <= qenc.upper  # same point
    assert abs(float(qenc.lower) - 0.5805775583) < 1e-9

    # lies inside the a-priori interval [q^mu, q^mu/(1-q)] = [1/2, 1]
    assert F(1, 2) <= qenc.lower and qenc.upper <= 1

    # exact Q(n, 2) approaches the enclosure monotonically in n
    vals = [probability(n, 2).value_Q for n in (10, 20, 30)]
    assert vals[0] <= vals[1] <= vals[2] <= qenc.upper
    gaps = [qenc.lower - v for v in vals]
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0
    print("\nPASS criterion 7: lim Q(n,2) enclosure width <= 1e-9, value ~0.5805775583 in [1/2, 1]")


def test_criterion_08_det_value_distribution():
    run_suite("detdist")
    assert exhaustive(2, 3).det_histogram == {0: 9, 1: 6, 2: 12}
    print("\nPASS criterion 8: det-value formula = exhaustive histograms, masses sum to 1 exactly")


def test_criterion_09_functional_equations():
    run_suite("genfun")
    print("\nPASS criterion 9: functional equation and step identities hold as polynomial identities")


def test_criterion_10_monte_carlo_sanity():
    exact = probability(6, 8).value_P
    covered = sum(
        monte_carlo(6, 8, 100_000, seed=seed).covers(exact) for seed in range(40)
    )
    assert covered >= 38, f"only {covered}/40 runs covered the exact value"
    replay_a = monte_carlo(6, 8, 100_000, seed=0)
    replay_b = monte_carlo(6, 8, 100_000, seed=0)
    assert replay_a.hits == replay_b.hits
    print(f"\nPASS criterion 10: 99% CI covered P(6,8) in {covered}/40 seeded runs; replay identical")
