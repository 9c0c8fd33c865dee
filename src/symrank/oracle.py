"""Ground-truth generators: exhaustive enumeration over tiny (n, m) grids
and a seeded, reproducible Monte Carlo estimator for larger sizes.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import factorize
from .symmat import SymMatrix, classify_case, det_mod, m_rank, random_symmetric

if TYPE_CHECKING:  # numpy is imported where it is used, so the exact routes never load it
    import numpy as np

DEFAULT_BUDGET = 10**7
BUDGET_ENV = "SYMRANK_BUDGET"

# 99% two-sided normal quantile, Phi(z) = 0.995
Z99 = 2.5758293035489004


class BudgetExceeded(ValueError):
    """Raised when an exhaustive sweep would enumerate more matrices than
    the configured budget allows."""


def exhaustive_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class ExhaustiveReport:
    """Exact counts over every symmetric matrix for one (n, m)."""

    n: int
    m: int
    total: int
    full_rank_count: int
    det_histogram: dict[int, int]
    rank_histogram: dict[int, int]
    # four-way first-row case tallies; None unless m is a prime power and n >= 1
    case_histogram: dict[str, int] | None

    @property
    def full_rank_fraction(self) -> Fraction:
        return Fraction(self.full_rank_count, self.total)


def exhaustive(n: int, m: int, budget: int | None = None) -> ExhaustiveReport:
    """Enumerate every symmetric matrix once (packed-triangle odometer,
    last entry fastest) and tally determinants, m-ranks and first-row cases.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    cap = exhaustive_budget(budget)
    free = n * (n + 1) // 2
    total = m**free
    if total > cap:
        raise BudgetExceeded(
            f"exhaustive sweep of (n={n}, m={m}) needs {total} matrices, "
            f"budget is {cap} (override with {BUDGET_ENV} or budget=)"
        )
    prime_power = len(factorize(m)) == 1
    det_hist: Counter[int] = Counter()
    rank_hist: Counter[int] = Counter()
    case_hist: Counter[str] = Counter()
    for combo in itertools.product(range(m), repeat=free):
        A = SymMatrix(n, m, combo)
        det_hist[det_mod(A)] += 1
        rank_hist[m_rank(A).rank] += 1
        if prime_power and n >= 1:
            case_hist[classify_case(A)] += 1
    full = total - det_hist.get(0, 0)
    return ExhaustiveReport(
        n,
        m,
        total,
        full,
        dict(det_hist),
        dict(rank_hist),
        dict(case_hist) if prime_power and n >= 1 else None,
    )


@dataclass(frozen=True)
class MCEstimate:
    trials: int
    hits: int
    estimate: Fraction
    ci_low: float
    ci_high: float
    seed: int
    workers: int

    def covers(self, exact: Fraction) -> bool:
        return self.ci_low <= float(exact) <= self.ci_high


def _ci99(hits: int, trials: int) -> tuple[float, float]:
    """99% normal-approximation interval; exact one-sided bound at the
    degenerate estimates 0 and 1."""
    if hits == 0:
        return 0.0, 1.0 - 0.01 ** (1.0 / trials)
    if hits == trials:
        return 0.01 ** (1.0 / trials), 1.0
    ph = hits / trials
    half = Z99 * math.sqrt(ph * (1.0 - ph) / trials)
    return max(0.0, ph - half), min(1.0, ph + half)


def _hadamard_sq(k: int, b: int) -> int:
    """Exact upper bound for (k x k minor)^2 with entries in [0, b]."""
    if k <= 0:
        return 1
    return k**k * b ** (2 * k)


def _fits_int64(n: int, m: int) -> bool:
    if n <= 1:
        return True
    b = m - 1
    # largest product formed by the Bareiss update, and the final det itself
    return 2 * _hadamard_sq(n - 1, b) < 2**62 and _hadamard_sq(n, b) < 2**124


def _det_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (B, n, n) integer batch by fraction-free
    elimination; row swaps are resolved per batch element."""
    import numpy as np

    B, n, _ = mats.shape
    if n == 0:
        return np.ones(B, dtype=mats.dtype)
    a = mats.copy()
    sign = np.ones(B, dtype=a.dtype)
    dead = np.zeros(B, dtype=bool)
    prev = np.ones(B, dtype=a.dtype)
    for k in range(n - 1):
        col = a[:, k:, k] != 0
        has = col.any(axis=1)
        dead |= ~has
        first = np.argmax(col, axis=1)
        swap = np.nonzero(has & (first > 0))[0]
        if swap.size:
            r2 = k + first[swap]
            tmp = a[swap, k, :].copy()
            a[swap, k, :] = a[swap, r2, :]
            a[swap, r2, :] = tmp
            sign[swap] = -sign[swap]
        piv = a[:, k, k].copy()
        piv[dead] = prev[dead]  # keep divisions valid; result is discarded
        lower = a[:, k + 1 :, k].copy()
        right = a[:, k, k + 1 :].copy()
        a[:, k + 1 :, k + 1 :] = (
            a[:, k + 1 :, k + 1 :] * piv[:, None, None]
            - lower[:, :, None] * right[:, None, :]
        ) // prev[:, None, None]
        prev = piv
    det = sign * a[:, n - 1, n - 1]
    det[dead] = 0
    return det


def _triangle_index(n: int) -> np.ndarray:
    """(n, n) map from matrix position to packed-triangle offset."""
    import numpy as np

    idx = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for i in range(n):
        for j in range(i, n):
            idx[i, j] = pos
            idx[j, i] = pos
            pos += 1
    return idx


def monte_carlo(n: int, m: int, trials: int, seed: int, workers: int = 1) -> MCEstimate:
    """Estimate P(n, m) from iid uniform symmetric samples with an exact
    nonsingularity test.

    Each worker w draws its fixed share of the trials from an independent
    substream (SeedSequence(seed).spawn), so results are identical for a
    given (seed, trials, workers) regardless of scheduling.  Residues come
    from Generator.integers, which is rejection-based and so exactly
    uniform; determinants are computed by exact integer elimination
    (int64 when a Hadamard bound certifies no overflow, otherwise
    arbitrary-precision integers).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    import numpy as np

    free = n * (n + 1) // 2
    idx = _triangle_index(n)
    use_i64 = _fits_int64(n, m)
    shares = [trials // workers + (1 if w < trials % workers else 0) for w in range(workers)]
    children = np.random.SeedSequence(seed).spawn(workers)
    hits = 0
    chunk = 8192
    for child, share in zip(children, shares):
        gen = np.random.Generator(np.random.PCG64(child))
        left = share
        while left > 0:
            batch = min(chunk, left)
            left -= batch
            flat = gen.integers(0, m, size=(batch, free), dtype=np.int64)
            mats = flat[:, idx]
            if not use_i64:
                mats = mats.astype(object)
            dets = _det_batch(mats)
            hits += int(np.count_nonzero(dets % m))
    lo, hi = _ci99(hits, trials)
    return MCEstimate(trials, hits, Fraction(hits, trials), lo, hi, seed, workers)


def rank_histogram_mc(n: int, m: int, trials: int, seed: int) -> dict[int, int]:
    """Histogram of m-rank over seeded random samples; the full-rank bin
    frequency is consistent with P(n, m)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    hist: Counter[int] = Counter()
    for _ in range(trials):
        hist[m_rank(random_symmetric(n, m, rng)).rank] += 1
    return dict(hist)
