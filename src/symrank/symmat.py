"""Symmetric matrices over Z_m: sampling, determinants and m-rank from one
modular elimination, and the symmetry-preserving elimination steps.

Residues are stored in [0, m-1]; the usual {1..m} convention is the same
residue system (m plays the role of 0) and entry-wise uniformity is
unaffected.  The trivial modulus m = 1 is allowed as a value (it arises as
the residual modulus of deep reductions) but cannot be sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import PrimePower, factorize

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
CASE4 = "case4"


@dataclass(frozen=True)
class SymMatrix:
    """n x n symmetric matrix over Z_m, packed upper triangle (row-major)."""

    n: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        want = self.n * (self.n + 1) // 2
        if len(self.entries) != want:
            raise ValueError(f"expected {want} packed entries, got {len(self.entries)}")
        if any(not 0 <= e < self.m for e in self.entries):
            raise ValueError("entries must lie in [0, m-1]")

    def _idx(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n - i * (i + 1) // 2 + j

    def entry(self, i: int, j: int) -> int:
        return self.entries[self._idx(i, j)]

    def rows(self) -> list[list[int]]:
        """Full square array, filled by one walk of the packed triangle: row
        i is the mirror of column i above the diagonal, then its packed run."""
        n = self.n
        out: list[list[int]] = []
        pos = 0
        for i in range(n):
            out.append([r[i] for r in out] + list(self.entries[pos : pos + n - i]))
            pos += n - i
        return out

    @classmethod
    def from_rows(cls, rows: list[list[int]], m: int) -> "SymMatrix":
        """Build from a full square array; symmetry is checked on the raw
        integers, then entries are reduced mod m."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j}): {rows[i][j]} != {rows[j][i]}")
        packed = tuple(rows[i][j] % m for i in range(n) for j in range(i, n))
        return cls(n, m, packed)


@dataclass(frozen=True)
class ElimStep:
    """One elimination step: det(A) = pivot_factor * det(residual) mod p**mu,
    where the residual lives mod p**(mu - modulus_shift)."""

    kind: str
    pivot_factor: int
    residual: SymMatrix
    modulus_shift: int

    def __post_init__(self) -> None:
        shifts = {CASE1: 0, CASE2: 0, CASE3: 1, CASE4: 2}
        if self.kind not in shifts:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.modulus_shift != shifts[self.kind]:
            raise ValueError(f"{self.kind} must have modulus_shift {shifts[self.kind]}")


@dataclass(frozen=True)
class RankProfile:
    """m-rank and det(A) mod m, with the elementary-divisor valuations
    (prime-power m only; valuations are clamped at mu and None for
    composite m and for m = 1)."""

    rank: int
    valuations: tuple[int, ...] | None
    det: int


def random_symmetric(n: int, m: int, rng: random.Random) -> SymMatrix:
    """Uniform random symmetric matrix: each of the n(n+1)/2 free entries is
    an independent uniform residue.  Deterministic given the generator state;
    rng.randrange is rejection-based, so residues are exactly uniform."""
    if m < 2:
        raise ValueError("m must be >= 2")
    count = n * (n + 1) // 2
    return SymMatrix(n, m, tuple(rng.randrange(m) for _ in range(count)))


def det_mod(A: SymMatrix) -> int:
    """Determinant of the integer lift of A, reduced into [0, m-1]."""
    return m_rank(A).det


def is_full_rank(A: SymMatrix) -> bool:
    """True iff det(A) is nonzero mod m, i.e. the m-rank equals n."""
    return det_mod(A) != 0


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _eliminate(rows: list[list[int]], p: int, mu: int) -> tuple[tuple[int, ...], int]:
    """Elementary-divisor valuations (clamped at mu) and det mod p**mu.

    Diagonalizes mod p**mu with minimal-valuation pivoting (ties: smallest
    row, then column).  Each step swaps the pivot into place and clears its
    column below it by adding multiples of the pivot row; those operations
    are unimodular, so the valuations are invariant and det(A) is the sign
    of the swaps times the product of the pivots.  Clearing the pivot row
    as well would change only that row, so it is skipped.
    """
    pm = p**mu
    a = [[x % pm for x in row] for row in rows]
    n = len(a)
    vals: list[int] = []
    det = 1 % pm
    for step in range(n):
        best: tuple[int, int, int] | None = None  # (v, i, j)
        for i in range(step, n):
            for j in range(step, n):
                if a[i][j]:
                    v = _valuation(a[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            vals.extend([mu] * (n - step))
            return tuple(vals), 0
        v, bi, bj = best
        if bi != step:
            a[step], a[bi] = a[bi], a[step]
            det = -det
        if bj != step:
            for r in range(step, n):
                a[r][step], a[r][bj] = a[r][bj], a[r][step]
            det = -det
        ast = a[step]
        piv = ast[step]
        det = det * piv % pm
        pv = p**v
        unit_inv = pow(piv // pv, -1, pm)
        for r in range(step + 1, n):
            ar = a[r]
            if ar[step]:
                f = (ar[step] // pv) * unit_inv % pm
                for c in range(step + 1, n):
                    ar[c] = (ar[c] - f * ast[c]) % pm
        vals.append(v)
    return tuple(vals), det


def m_rank(A: SymMatrix) -> RankProfile:
    """m-rank, the largest k such that some k x k submatrix has determinant
    nonzero mod m, together with det(A) mod m.

    For m = p**mu the rank is the largest k whose k smallest elementary
    divisor valuations sum below mu; for composite m it is the maximum of
    the prime-power ranks (a minor is nonzero mod m iff it is nonzero mod
    some prime-power factor), and the prime-power determinants combine by
    the Chinese remainder theorem.
    """
    if A.m == 1:
        return RankProfile(0, None, 0)
    rows = A.rows()
    factors = factorize(A.m)
    rank = 0
    det = 0
    for pp in factors:
        vals, d = _eliminate(rows, pp.p, pp.mu)
        k = 0
        acc = 0
        for v in vals:
            acc += v
            if acc >= pp.mu:
                break
            k += 1
        rank = max(rank, k)
        cof = A.m // pp.value
        det += d * cof * pow(cof, -1, pp.value)
    return RankProfile(rank, vals if len(factors) == 1 else None, det % A.m)


def _single_prime_power(m: int) -> PrimePower:
    factors = factorize(m)
    if len(factors) != 1:
        raise ValueError(f"m = {m} is not a prime power")
    return factors[0]


def classify_case(A: SymMatrix) -> str:
    """Four-way first-row classification over Z_{p**mu}:

    case1: a11 a unit mod p; case2: a11 = 0 mod p but some first-row entry
    is a unit; case3: whole first row = 0 mod p and a11 != 0 mod p**2;
    case4: whole first row = 0 mod p and a11 = 0 mod p**2.
    """
    if A.n < 1:
        raise ValueError("classification needs n >= 1")
    pp = _single_prime_power(A.m)
    p = pp.p
    a11 = A.entry(0, 0)
    if a11 % p:
        return CASE1
    if any(A.entry(0, j) % p for j in range(1, A.n)):
        return CASE2
    if a11 % (p * p):
        return CASE3
    return CASE4


def _congruence_row_eliminate(A: SymMatrix, lam: list[int]) -> list[list[int]]:
    """Residual block of U A U^T mod m, where row i of U adds lam[i] times
    row/column 1 (entries indexed from the second row/column)."""
    m = A.m
    n = A.n
    a11 = A.entry(0, 0)
    out = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(1, n):
        for j in range(i, n):
            v = (
                A.entry(i, j)
                + lam[i - 1] * A.entry(0, j)
                + lam[j - 1] * A.entry(0, i)
                + lam[i - 1] * lam[j - 1] * a11
            ) % m
            out[i - 1][j - 1] = v
            out[j - 1][i - 1] = v
    return out


def eliminate_case1(A: SymMatrix) -> ElimStep:
    """Pivot on a unit a11: multipliers solve a11 * lam_j = -a1j mod m, and
    det(A) = a11 * det(residual) mod m with an (n-1) x (n-1) residual."""
    if classify_case(A) != CASE1:
        raise ValueError("matrix is not in case 1")
    if A.n <= 1:
        raise ValueError("elimination needs n > 1")
    m = A.m
    a11 = A.entry(0, 0)
    inv = pow(a11, -1, m)
    lam = [(-A.entry(0, j)) * inv % m for j in range(1, A.n)]
    residual = SymMatrix.from_rows(_congruence_row_eliminate(A, lam), m)
    return ElimStep(CASE1, a11, residual, 0)


def eliminate_case3(A: SymMatrix) -> ElimStep:
    """Case-3 pivot: a11 = u*p with u a unit, every a1j divisible by p.
    The same row elimination applies with lam_j = -(a1j/p) * u^{-1}, and the
    residual drops to modulus p**(mu-1); det(A) = a11 * det(residual) there.
    """
    if classify_case(A) != CASE3:
        raise ValueError("matrix is not in case 3")
    if A.n <= 1:
        raise ValueError("elimination needs n > 1")
    pp = _single_prime_power(A.m)
    p, m = pp.p, A.m
    a11 = A.entry(0, 0)
    unit_inv = pow(a11 // p, -1, m)
    lam = [(-(A.entry(0, j) // p)) * unit_inv % m for j in range(1, A.n)]
    reduced_m = m // p
    rows = _congruence_row_eliminate(A, lam)
    rows = [[x % reduced_m for x in r] for r in rows]
    residual = SymMatrix.from_rows(rows, reduced_m)
    return ElimStep(CASE3, a11, residual, 1)


def eliminate_case2(A: SymMatrix) -> ElimStep:
    """Pivot on the 2x2 block after swapping the first unit off-diagonal
    entry into position (1,2).  The block determinant is a unit mod p, the
    multipliers solve the 2x2 system, and det(A) = blockdet * det(residual)
    mod m with an (n-2) x (n-2) residual."""
    if classify_case(A) != CASE2:
        raise ValueError("matrix is not in case 2")
    if A.n <= 2:
        raise ValueError("case-2 elimination needs n > 2")
    pp = _single_prime_power(A.m)
    p, m, n = pp.p, A.m, A.n
    rows = A.rows()
    pivot_col = next(j for j in range(1, n) if rows[0][j] % p)
    if pivot_col != 1:
        rows[1], rows[pivot_col] = rows[pivot_col], rows[1]
        for r in rows:
            r[1], r[pivot_col] = r[pivot_col], r[1]
    a11, a12, a22 = rows[0][0], rows[0][1], rows[1][1]
    blockdet = (a11 * a22 - a12 * a12) % m
    inv = pow(blockdet, -1, m)
    lam = [0] * (n - 2)
    mu_ = [0] * (n - 2)
    for j in range(2, n):
        b1, b2 = rows[0][j], rows[1][j]
        lam[j - 2] = (-inv * (a22 * b1 - a12 * b2)) % m
        mu_[j - 2] = (-inv * (-a12 * b1 + a11 * b2)) % m
    out = [[0] * (n - 2) for _ in range(n - 2)]
    for i in range(2, n):
        for j in range(i, n):
            li, mi = lam[i - 2], mu_[i - 2]
            lj, mj = lam[j - 2], mu_[j - 2]
            v = (
                rows[i][j]
                + li * rows[0][j]
                + mi * rows[1][j]
                + lj * rows[0][i]
                + mj * rows[1][i]
                + li * lj * a11
                + (li * mj + mi * lj) * a12
                + mi * mj * a22
            ) % m
            out[i - 2][j - 2] = v
            out[j - 2][i - 2] = v
    residual = SymMatrix.from_rows(out, m)
    return ElimStep(CASE2, blockdet, residual, 0)


def reduce_case4(A: SymMatrix) -> ElimStep:
    """Divide the first row and column by p (the corner by p**2) and reduce
    mod p**(mu-2).  The residual is uniform when A is, and
    det(A) = p**2 * det(residual) mod p**mu."""
    if classify_case(A) != CASE4:
        raise ValueError("matrix is not in case 4")
    pp = _single_prime_power(A.m)
    p, mu = pp.p, pp.mu
    if mu < 2:
        raise ValueError("case-4 reduction needs mu >= 2")
    reduced_m = p ** (mu - 2)
    rows = A.rows()
    rows[0][0] //= p * p
    for j in range(1, A.n):
        rows[0][j] //= p
        rows[j][0] = rows[0][j]
    rows = [[x % reduced_m for x in r] for r in rows]
    residual = SymMatrix.from_rows(rows, reduced_m)
    return ElimStep(CASE4, p * p, residual, 2)


def parse_matrix(text: str) -> SymMatrix:
    """Matrix text format: first line 'n m', then n rows of n integers.
    Symmetry is validated on the raw values; entries reduce mod m on load."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if m < 2:
        raise ValueError("m must be >= 2")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1 : n + 1]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    return SymMatrix.from_rows(rows, m)


def load_matrix(path: str) -> SymMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def format_matrix(A: SymMatrix) -> str:
    lines = [f"{A.n} {A.m}"]
    lines.extend(" ".join(str(x) for x in row) for row in A.rows())
    return "\n".join(lines) + "\n"
