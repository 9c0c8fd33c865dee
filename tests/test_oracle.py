import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank import oracle
from symrank.arith import factorize
from symrank.oracle import (
    Z99,
    BudgetExceeded,
    _det_rank_batch,
    _eliminate_batch,
    _samples,
    _triangle_index,
    exhaustive,
    exhaustive_budget,
    monte_carlo,
    rank_histogram_mc,
)
from symrank.prob import probability
from symrank.symmat import SymMatrix, _eliminate, classify_case, det_mod, m_rank, random_symmetric


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


@pytest.mark.parametrize("value", ["abc", "1e9"])
def test_exhaustive_budget_env_not_an_integer(monkeypatch, value):
    monkeypatch.setenv("SYMRANK_BUDGET", value)
    with pytest.raises(ValueError) as exc:
        exhaustive_budget()
    assert "SYMRANK_BUDGET" in str(exc.value) and value in str(exc.value)


def assert_batch_matches_scalar(mats, p, mu):
    vals, det = _eliminate_batch(mats, p, mu)
    assert vals.shape == mats.shape[:2] and det.shape == mats.shape[:1]
    for b, A in enumerate(mats):
        got = (tuple(int(v) for v in vals[b]), int(det[b]))
        assert got == _eliminate(A.tolist(), p, mu), (p, mu, A.tolist())


def sym_batch(rng, count, n, pm, scale=1, dtype=np.int64):
    """count random symmetric n x n matrices, entries multiples of scale mod pm."""
    flat = [[rng.randrange(pm) * scale % pm for _ in range(n * (n + 1) // 2)] for _ in range(count)]
    return np.array(flat, dtype=dtype).reshape(count, -1)[:, _triangle_index(n)]


def low_rank_batch(rng, count, n, pm):
    """C^T S C mod pm with S symmetric r x r and C r x n, so the rank is at most r < n."""
    out = np.zeros((count, n, n), dtype=np.int64)
    for b in range(count):
        r = rng.randrange(n)
        S = sym_batch(rng, 1, r, pm)[0]
        C = np.array([[rng.randrange(pm) for _ in range(n)] for _ in range(r)], dtype=np.int64).reshape(r, n)
        out[b] = (C.T @ S % pm) @ C % pm
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eliminate_batch_matches_scalar_random(p):
    rng = random.Random(p)
    for mu in range(1, 7):
        for n in range(13):
            assert_batch_matches_scalar(sym_batch(rng, 6, n, p**mu), p, mu)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_eliminate_batch_matches_scalar_structured(p):
    rng = random.Random(100 + p)
    for mu in range(1, 7):
        pm = p**mu
        for n in range(13):
            parts = [np.zeros((1, n, n), dtype=np.int64)]
            parts += [sym_batch(rng, 3, n, pm, scale) for scale in (p, p * p)]
            if n >= 1:
                parts.append(low_rank_batch(rng, 3, n, pm))
            # one batch mixing every kind, so matrices drop out at different steps
            assert_batch_matches_scalar(np.concatenate(parts), p, mu)


@pytest.mark.parametrize("m", [2**40, 2147483659])
def test_eliminate_batch_object_dtype(m):
    (pp,) = factorize(m)
    assert pp.value >= 2**31
    rng = random.Random(m % 1000)
    for n in range(6):
        for scale in (1, 2, 4):
            mats = sym_batch(rng, 5, n, m, scale, dtype=object)
            assert_batch_matches_scalar(mats, pp.p, pp.mu)
            assert _eliminate_batch(mats, pp.p, pp.mu)[1].dtype == object


@pytest.mark.parametrize(
    "p,mu,dtype",
    [(2, 14, np.int32), (181, 2, np.int32), (32749, 1, np.int32), (2, 15, np.int64)],
)
def test_eliminate_batch_dtype_boundaries(p, mu, dtype):
    # the largest moduli of each tier, where a product of two residues nears 2**30
    pm = p**mu
    rng = random.Random(pm)
    for n in range(9):
        parts = [sym_batch(rng, 4, n, pm, scale) for scale in (1, p)]
        if n >= 1:
            parts.append(low_rank_batch(rng, 2, n, pm))
        mats = np.concatenate(parts)
        assert_batch_matches_scalar(mats, p, mu)
        assert _eliminate_batch(mats, p, mu)[1].dtype == dtype


def test_det_rank_batch_crt_past_int32():
    # both factors run in int32, while the CRT multiplier is near m
    m = 32749 * 32719
    factors = factorize(m)
    rng = random.Random(5)
    for n in range(5):
        mats = sym_batch(rng, 40, n, m)
        det, rank = _det_rank_batch(mats, m, factors)
        for b, A in enumerate(mats):
            prof = m_rank(SymMatrix.from_rows(A.tolist(), m))
            assert (int(det[b]), int(rank[b])) == (prof.det, prof.rank), (n, A.tolist())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eliminate_batch_property(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    mu = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, 12))
    pm = p**mu
    free = n * (n + 1) // 2
    flat = []
    for _ in range(data.draw(st.integers(1, 4))):
        scale = p ** data.draw(st.integers(0, 2))
        flat.append([x * scale % pm for x in data.draw(st.lists(st.integers(0, pm - 1), min_size=free, max_size=free))])
    mats = np.array(flat, dtype=np.int64).reshape(len(flat), free)[:, _triangle_index(n)]
    assert_batch_matches_scalar(mats, p, mu)


def reference_exhaustive(n, m):
    """Per-matrix loop: one m_rank and one classify_case per matrix."""
    prime_power = len(factorize(m)) == 1
    det_hist, rank_hist, case_hist = {}, {}, {}
    for combo in itertools.product(range(m), repeat=n * (n + 1) // 2):
        A = SymMatrix(n, m, combo)
        prof = m_rank(A)
        det_hist[prof.det] = det_hist.get(prof.det, 0) + 1
        rank_hist[prof.rank] = rank_hist.get(prof.rank, 0) + 1
        if prime_power and n >= 1:
            case = classify_case(A)
            case_hist[case] = case_hist.get(case, 0) + 1
    return det_hist, rank_hist, case_hist if prime_power and n >= 1 else None


@pytest.mark.parametrize("n,m", [(0, 2), (1, 4), (2, 12), (3, 4), (3, 6), (4, 3), (2, 30)])
def test_exhaustive_matches_per_matrix_reference(n, m):
    rep = exhaustive(n, m)
    det_hist, rank_hist, case_hist = reference_exhaustive(n, m)
    assert (rep.n, rep.m, rep.total) == (n, m, m ** (n * (n + 1) // 2))
    assert rep.full_rank_count == rep.total - det_hist.get(0, 0)
    # equal as dicts and in key order
    assert list(rep.det_histogram.items()) == list(det_hist.items())
    assert list(rep.rank_histogram.items()) == list(rank_hist.items())
    if case_hist is None:
        assert rep.case_histogram is None
    else:
        assert list(rep.case_histogram.items()) == list(case_hist.items())
    assert all(type(k) is int for k in (*rep.det_histogram, *rep.rank_histogram))


def test_exhaustive_refuses_sweeps_past_int64_indices(monkeypatch):
    monkeypatch.setenv("SYMRANK_BUDGET", str(10**40))
    for n, m in [(11, 2), (1, 2**62), (4, 2**7)]:
        with pytest.raises(BudgetExceeded) as exc:
            exhaustive(n, m)
        assert "2**62" in str(exc.value) and "\n" not in str(exc.value)
    assert exhaustive(2, 3).total == 27


# Values recorded before the batch kernel took over: the first three from the
# per-matrix implementation (m_rank per sample), the rest, which lay inside a
# Hadamard bound, from a fraction-free int64 determinant.  A hit means det != 0
# mod m, so no kernel change may move them.  rank_histogram_mc ranks the
# one-worker draws, so its full-rank bin holds the same hits.
@pytest.mark.parametrize(
    "n,m,trials,seed,workers,hits",
    [
        (20, 8, 4000, 20260418, 2, 3209),
        (9, 1000, 3000, 777, 3, 2995),
        (2, 2**40, 500, 31337, 1, 500),
        (6, 8, 200000, 20261018, 2, 161184),
        (6, 30, 50000, 4242, 1, 47826),
        (3, 6, 50000, 99, 3, 39827),
        (4, 2, 50000, 7, 1, 21778),
        (1, 2, 1000, 5, 1, 479),
    ],
)
def test_monte_carlo_pinned_hits(n, m, trials, seed, workers, hits):
    assert monte_carlo(n, m, trials, seed, workers).hits == hits
    if workers == 1:
        assert rank_histogram_mc(n, m, trials, seed).get(n, 0) == hits


def test_rank_histogram_mc_pinned():
    # the full-rank bin is monte_carlo(10, 9, 10000, 2024, 1).hits
    hist = rank_histogram_mc(10, 9, 10000, 2024)
    assert list(hist.items()) == [(10, 8505), (9, 1470), (8, 25)]


def _draws(n, m, trials, seed, workers):
    """sha256 of the concatenated batches of _samples, and their sizes."""
    h, sizes = hashlib.sha256(), []
    for batch in _samples(n, m, trials, seed, workers):
        h.update(batch.tobytes())
        sizes.append(len(batch))
    return h.hexdigest(), sizes


@pytest.mark.parametrize(
    "n,m,trials,seed,workers",
    [(20, 8, 20000, 7, 2), (6, 30, 50000, 7, 1), (20, 2**40, 3000, 5, 2), (13, 9, 9000, 3, 1)],
)
def test_samples_do_not_depend_on_chunk(monkeypatch, n, m, trials, seed, workers):
    want = _draws(n, m, trials, seed, workers)[0]
    monkeypatch.setattr(oracle, "CHUNK", 257)
    got, sizes = _draws(n, m, trials, seed, workers)
    assert got == want
    assert max(sizes) == 257 and sum(sizes) == trials


def test_samples_batches_are_sized_by_n():
    # 2**20 // 60**2 = 291 matrices of 60 x 60 a batch
    shapes = [b.shape for b in _samples(60, 2, 1000, 1, 1)]
    assert all(s[0] <= 291 and s[1:] == (60, 60) for s in shapes)
    assert sum(s[0] for s in shapes) == 1000


def test_sampling_refuses_m_past_int64_before_factorizing(monkeypatch):
    # factorizing 2**64 + 13 by trial division ran for minutes
    def fail(m):
        raise AssertionError("factorize called")

    monkeypatch.setattr(oracle, "factorize", fail)
    for sampler in (rank_histogram_mc, monte_carlo):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            sampler(2, 2**64 + 13, 50, 4)


def test_rank_histogram_mc_rejects_bad_input():
    for n, m, trials in [(2, 4, 0), (-1, 4, 5), (2, 1, 5)]:
        with pytest.raises(ValueError):
            rank_histogram_mc(n, m, trials, seed=0)


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


# Each bin must lie within 6 sigma + 1 of exhaustive's exact count scaled to the
# trials, a false alarm of about 2e-9 per bin; the seeds were fixed in advance.
@pytest.mark.parametrize(
    "n,m,seed",
    [(2, 2, 5), (4, 3, 11), (3, 4, 12), (3, 6, 13), (2, 12, 14), (5, 2, 15), (3, 8, 16), (2, 9, 17)],
)
def test_rank_histogram_mc_matches_exhaustive_distribution(n, m, seed):
    trials = 20000
    hist = rank_histogram_mc(n, m, trials, seed)
    assert sum(hist.values()) == trials
    rep = exhaustive(n, m)
    assert set(hist) <= set(rep.rank_histogram)
    for rank, count in rep.rank_histogram.items():
        want = count * trials / rep.total
        sigma = math.sqrt(want * (1 - count / rep.total))
        assert abs(hist.get(rank, 0) - want) <= 6 * sigma + 1, (rank, hist, rep.rank_histogram)


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
