"""Ground-truth generators: exhaustive enumeration over tiny (n, m) grids
and a seeded, reproducible Monte Carlo estimator for larger sizes, both
batched through one numpy elimination over Z/p**mu.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import PrimePower, factorize
from .symmat import CASE1, CASE2, CASE3, CASE4
from .symmat import SymMatrix  # noqa: F401  (a module binding perfbench's tracer wraps)

if TYPE_CHECKING:  # numpy is imported where it is used, so the exact routes never load it
    import numpy as np

DEFAULT_BUDGET = 10**7
BUDGET_ENV = "SYMRANK_BUDGET"

# 99% two-sided normal quantile, Phi(z) = 0.995
Z99 = 2.5758293035489004

CHUNK = 8192  # matrices per batch
INDEX_LIMIT = 2**62  # an exhaustive sweep addresses its matrices by int64 index
CASES = (CASE1, CASE2, CASE3, CASE4)


class BudgetExceeded(ValueError):
    """Raised when an exhaustive sweep would enumerate more matrices than
    the configured budget allows."""


def exhaustive_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV}={env!r} is not an integer") from None


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
    """Enumerate every symmetric matrix once and tally determinants, m-ranks
    and first-row cases.

    Matrix k of the sweep has as packed entries the base-m digits of k, last
    entry fastest (the order of itertools.product), so histogram keys appear
    in the same order as a per-matrix loop would insert them.  Chunks of
    indices are decoded and eliminated in one batch per prime-power factor
    of m (factorized once per sweep), which gives both det mod m and the
    m-rank.
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
    if total >= INDEX_LIMIT:
        raise BudgetExceeded(
            f"exhaustive sweep of (n={n}, m={m}) needs {total} matrices, "
            f"more than the 2**62 that int64 matrix indices can address"
        )
    import numpy as np

    factors = factorize(m)
    cases = len(factors) == 1 and n >= 1
    idx = _triangle_index(n)
    place = np.array([m ** (free - 1 - j) for j in range(free)], dtype=np.int64)
    det_hist: dict[int, int] = {}
    rank_hist: dict[int, int] = {}
    case_hist: dict[int, int] = {}
    for start in range(0, total, CHUNK):
        ks = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        flat = ks[:, None] // place % m
        det, rank = _det_rank_batch(flat[:, idx], m, factors)
        _tally(det_hist, det)
        _tally(rank_hist, rank)
        if cases:
            _tally(case_hist, _case_codes(flat[:, :n], factors[0].p))
    full = total - det_hist.get(0, 0)
    case_names = {CASES[code]: count for code, count in case_hist.items()} if cases else None
    return ExhaustiveReport(n, m, total, full, det_hist, rank_hist, case_names)


def _case_codes(first_row: np.ndarray, p: int) -> np.ndarray:
    """Index into CASES of the first-row case of each matrix (the batch form
    of symmat.classify_case), given the (B, n) first rows."""
    import numpy as np

    a11 = first_row[:, 0]
    unit_off = (first_row[:, 1:] % p != 0).any(axis=1)
    # where a11 = 0 mod p, a11 != 0 mod p**2 iff a11 / p is a unit
    return np.select([a11 % p != 0, unit_off, a11 // p % p != 0], [0, 1, 2], 3)


def _tally(hist: dict[int, int], keys: np.ndarray) -> None:
    """Add the counts of keys to hist; new keys go in by first occurrence."""
    import numpy as np

    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    for i in np.argsort(first):
        key = int(uniq[i])
        hist[key] = hist.get(key, 0) + int(counts[i])


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


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in [0, q), as numpy floor-divides by a scalar several times
    faster than it takes a remainder."""
    return x - x // q * q


def _pow_batch(x: np.ndarray, e: int, pm: int) -> np.ndarray:
    """x**e mod pm elementwise, by square and multiply."""
    import numpy as np

    r = np.ones_like(x)
    for bit in bin(e)[2:]:
        r = r * r % pm
        if bit == "1":
            r = r * x % pm
    return r


def _eliminate_batch(mats: np.ndarray, p: int, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of symmat._eliminate: the elementary-divisor valuations
    (B, n), clamped at mu, and det mod p**mu (B,) of a (B, n, n) batch of
    symmetric integer matrices, equal matrix by matrix to _eliminate.

    Each step pivots on the first minimal-valuation entry of the remainder in
    row-major order: the first unit of the top row if it has one, else the
    least valuation over the whole remainder (taken only for the matrices
    whose top row has no unit).  It swaps the pivot into the corner,
    flipping the sign once per row or column swap, and clears the pivot
    column with the unit inverse, computed by powering.  The lower-right
    block is the next remainder.  A matrix whose remainder is all zero drops
    out with det 0 and its remaining valuations mu.  The dtype follows p**mu
    alone: int32 while p**mu < 2**15 and int64 while p**mu < 2**31, so every
    product of two residues stays below 2**30 or 2**62; larger moduli run the
    same code on object arrays.
    """
    import numpy as np

    pm = p**mu
    B, n = mats.shape[:2]
    dt = np.int32 if pm < 2**15 else np.int64 if pm < 2**31 else object
    a = np.asarray(mats, dtype=object if dt is object else None)
    a = (a % pm).astype(dt)
    vals = np.full((B, n), mu, dtype=np.int64)
    det = np.zeros(B, dtype=dt)
    live = np.arange(B)
    acc = np.ones(B, dtype=dt)  # swap sign times the pivot product, per live matrix
    powers = np.array([p**j for j in range(mu + 1)], dtype=dt)
    inv_exp = p ** (mu - 1) * (p - 1) - 1  # u**-1 = u**(phi(p**mu) - 1) for a unit u
    for s in range(n):
        k = n - s
        top = a[:, 0]
        unit = top // p * p != top
        pos = unit.argmax(axis=1)  # a unit in the top row is the first in row-major order
        v = np.zeros(len(live), dtype=np.int64)
        rest = np.flatnonzero(~unit.any(axis=1))
        if rest.size:
            sub = a[rest].reshape(rest.size, k * k)
            val = np.zeros(sub.shape, dtype=np.int64)  # valuation, mu for a zero entry
            for pj in powers[1:]:
                val += sub // pj * pj == sub
            pos[rest] = val.argmin(axis=1)
            v[rest] = val.min(axis=1)
            dead = v == mu
            if dead.any():
                keep = ~dead
                a, live, acc, pos, v = a[keep], live[keep], acc[keep], pos[keep], v[keep]
                if not live.size:
                    break
        vals[live, s] = v
        r, c = pos // k, pos % k
        sw = np.flatnonzero(r)
        a[sw, 0], a[sw, r[sw]] = a[sw, r[sw]], a[sw, 0]
        sw = np.flatnonzero(c)
        a[sw, :, 0], a[sw, :, c[sw]] = a[sw, :, c[sw]], a[sw, :, 0]
        acc[(r != 0) != (c != 0)] *= -1
        piv = a[:, 0, 0]
        acc = acc * piv % pm
        pv = powers[v]
        inv = _pow_batch(piv // pv, inv_exp, pm)
        f = _mod(a[:, 1:, 0] // pv[:, None] * inv[:, None], pm)
        a = _mod(a[:, 1:, 1:] - f[:, :, None] * a[:, :1, 1:], pm)
    det[live] = acc
    return vals, det


def _det_rank_batch(mats: np.ndarray, m: int, factors: list[PrimePower]) -> tuple[np.ndarray, np.ndarray]:
    """det mod m and the m-rank of a (B, n, n) batch, the batch form of
    symmat.m_rank: one elimination per prime-power factor of m, ranks
    combined by max and dets by the Chinese remainder theorem."""
    import numpy as np

    det = rank = 0
    for pp in factors:
        vals, d = _eliminate_batch(mats, pp.p, pp.mu)
        rank = np.maximum(rank, (np.cumsum(vals, axis=1) < pp.mu).sum(axis=1))
        cof = m // pp.value
        crt = cof * pow(cof, -1, pp.value) % m
        # d * crt < m**2 stays inside int64 while m < 2**31; d may be int32
        det = (det + d.astype(np.int64 if m < 2**31 else object) * crt) % m
    return det, rank


def monte_carlo(n: int, m: int, trials: int, seed: int, workers: int = 1) -> MCEstimate:
    """Estimate P(n, m) from iid uniform symmetric samples with an exact
    nonsingularity test.

    Each worker w draws its fixed share of the trials from an independent
    substream (SeedSequence(seed).spawn), so results are identical for a
    given (seed, trials, workers) regardless of scheduling.  The substreams
    run one after another in this process: workers changes the stream, not
    the speed.  Residues come from Generator.integers, which is
    rejection-based and so exactly uniform.  A sample is full rank iff its
    determinant is nonzero mod some prime-power factor of m.  The factors
    are eliminated largest first, and each passes on to the next only the
    samples it found singular, so most samples of a composite m are
    eliminated once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if m > 2**63:
        raise ValueError("m must be <= 2**63: residues are drawn as int64")
    if not 1 <= workers <= trials:
        raise ValueError(f"workers must be between 1 and trials ({trials})")
    import numpy as np

    free = n * (n + 1) // 2
    idx = _triangle_index(n)
    factors = sorted(factorize(m), key=lambda pp: pp.value, reverse=True)
    shares = [trials // workers + (1 if w < trials % workers else 0) for w in range(workers)]
    children = np.random.SeedSequence(seed).spawn(workers)
    hits = 0
    for child, share in zip(children, shares):
        gen = np.random.Generator(np.random.PCG64(child))
        left = share
        while left > 0:
            batch = min(CHUNK, left)
            left -= batch
            flat = gen.integers(0, m, size=(batch, free), dtype=np.int64)
            mats = flat[:, idx]
            for pp in factors:
                full = _eliminate_batch(mats, pp.p, pp.mu)[1] != 0
                hits += int(np.count_nonzero(full))
                mats = mats[~full]
                if not len(mats):
                    break
    lo, hi = _ci99(hits, trials)
    return MCEstimate(trials, hits, Fraction(hits, trials), lo, hi, seed, workers)


def rank_histogram_mc(n: int, m: int, trials: int, seed: int) -> dict[int, int]:
    """Histogram of m-rank over seeded random samples; the full-rank bin
    frequency is consistent with P(n, m).

    Matrix t holds the t-th run of n(n+1)/2 draws of
    random.Random(seed).randrange(m), the draws random_symmetric makes;
    chunks of matrices are ranked in one batch."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    import numpy as np

    rng = random.Random(seed)
    factors = factorize(m)
    free = n * (n + 1) // 2
    idx = _triangle_index(n)
    dtype = np.int64 if m <= 2**63 else object
    hist: dict[int, int] = {}
    for start in range(0, trials, CHUNK):
        batch = min(CHUNK, trials - start)
        flat = np.array([rng.randrange(m) for _ in range(batch * free)], dtype=dtype)
        _tally(hist, _det_rank_batch(flat.reshape(batch, free)[:, idx], m, factors)[1])
    return hist
