import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from symrank.oracle import (
    Z99,
    BudgetExceeded,
    _det_batch,
    exhaustive,
    monte_carlo,
    rank_histogram_mc,
)
from symrank.prob import probability
from symrank.symmat import det_mod, random_symmetric


def test_exhaustive_2_2():
    rep = exhaustive(2, 2)
    assert rep.total == 8
    assert rep.full_rank_count == 4
    assert rep.rank_histogram == {0: 1, 1: 3, 2: 4}
    assert sum(rep.det_histogram.values()) == 8


def test_exhaustive_2_3_det_histogram():
    rep = exhaustive(2, 3)
    assert rep.total == 27
    assert rep.det_histogram == {0: 9, 1: 6, 2: 12}


def test_exhaustive_3_2():
    rep = exhaustive(3, 2)
    assert rep.total == 64
    assert rep.full_rank_count == 28
    assert rep.full_rank_fraction == F(7, 16)


def test_exhaustive_1_4_rank_histogram():
    # residue 2 still has a nonzero 1x1 minor mod 4
    rep = exhaustive(1, 4)
    assert rep.rank_histogram == {0: 1, 1: 3}


def test_exhaustive_histograms_are_consistent():
    for n, m in [(2, 4), (2, 9), (3, 3)]:
        rep = exhaustive(n, m)
        assert sum(rep.det_histogram.values()) == rep.total
        assert sum(rep.rank_histogram.values()) == rep.total
        assert rep.full_rank_count == rep.total - rep.det_histogram.get(0, 0)
        assert rep.full_rank_count == rep.rank_histogram.get(n, 0)
        assert rep.full_rank_fraction == probability(n, m).value_P


def test_exhaustive_case_histogram_only_for_prime_powers():
    assert exhaustive(2, 4).case_histogram is not None
    assert exhaustive(2, 12).case_histogram is None


def test_exhaustive_budget_refusal():
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive(4, 10, budget=1000)
    assert "10000000000" in str(exc.value)


def test_exhaustive_budget_env_override(monkeypatch):
    monkeypatch.setenv("SYMRANK_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        exhaustive(2, 3)
    monkeypatch.setenv("SYMRANK_BUDGET", "100")
    assert exhaustive(2, 3).total == 27


def test_det_batch_matches_scalar_path():
    rng = random.Random(4)
    mats = []
    for _ in range(300):
        n = rng.randrange(0, 5)
        m = rng.randrange(2, 13)
        mats.append(random_symmetric(n, m, rng))
    for A in mats:
        batch = np.array(A.rows(), dtype=np.int64).reshape(1, A.n, A.n)
        assert int(_det_batch(batch)[0]) % A.m == det_mod(A)


def test_det_batch_object_dtype_for_large_matrices():
    rng = random.Random(11)
    for n in range(6, 11):
        for m in (12, 30, 1000):  # Hadamard bound past int64 from n = 9 at m = 1000
            A = random_symmetric(n, m, rng)
            batch = np.array(A.rows(), dtype=object).reshape(1, n, n)
            assert int(_det_batch(batch)[0]) % m == det_mod(A), (n, m)


def test_z99_quantile():
    # Phi(Z99) = 0.995 via the stdlib error function
    assert abs(0.5 * (1 + math.erf(Z99 / math.sqrt(2))) - 0.995) < 1e-12


def test_monte_carlo_deterministic_replay():
    a = monte_carlo(3, 4, 2000, seed=7, workers=3)
    b = monte_carlo(3, 4, 2000, seed=7, workers=3)
    assert a.hits == b.hits
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    c = monte_carlo(3, 4, 2000, seed=8, workers=3)
    assert c.hits != a.hits  # different stream


def test_monte_carlo_worker_partition_changes_stream_not_contract():
    a = monte_carlo(2, 2, 5001, seed=1, workers=1)
    b = monte_carlo(2, 2, 5001, seed=1, workers=4)
    assert a.trials == b.trials == 5001
    assert a.estimate == F(a.hits, 5001)
    assert b.estimate == F(b.hits, 5001)


def test_monte_carlo_single_entry():
    est = monte_carlo(1, 2, 100_000, seed=0)
    assert est.ci_low <= 0.5 <= est.ci_high


def test_monte_carlo_covers_exact_value():
    exact = probability(6, 8).value_P
    est = monte_carlo(6, 8, 100_000, seed=42)
    assert est.covers(exact)
    assert est.ci_low <= est.hits / est.trials <= est.ci_high


def test_monte_carlo_rejects_bad_input():
    with pytest.raises(ValueError):
        monte_carlo(3, 4, 3, seed=1, workers=4)
    with pytest.raises(ValueError):
        monte_carlo(-1, 4, 3, seed=1)
    assert monte_carlo(3, 4, 3, seed=1, workers=3).trials == 3


def test_monte_carlo_degenerate_ci():
    est = monte_carlo(0, 5, 50, seed=3)
    assert est.hits == 50  # empty matrices are always full rank
    assert est.ci_low == 0.01 ** (1 / 50)
    assert est.ci_high == 1.0


def test_rank_histogram_mc_matches_exhaustive_distribution():
    trials = 4000
    hist = rank_histogram_mc(2, 2, trials, seed=5)
    assert sum(hist.values()) == trials
    rep = exhaustive(2, 2)
    for rank, count in rep.rank_histogram.items():
        want = count / rep.total
        got = hist.get(rank, 0) / trials
        sigma = math.sqrt(want * (1 - want) / trials)
        assert abs(got - want) < 4 * sigma + 1e-9


def test_rank_histogram_mc_full_rank_bin_in_ci():
    trials = 5000
    hist = rank_histogram_mc(3, 4, trials, seed=9)
    hits = hist.get(3, 0)
    ph = hits / trials
    half = Z99 * math.sqrt(ph * (1 - ph) / trials)
    assert ph - half <= float(probability(3, 4).value_P) <= ph + half


def test_rank_histogram_mc_deterministic():
    assert rank_histogram_mc(2, 4, 500, seed=12) == rank_histogram_mc(2, 4, 500, seed=12)


def test_exact_modules_do_not_import_numpy():
    code = "import sys, symrank, symrank.prob, symrank.cli; print('numpy' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
