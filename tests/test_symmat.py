import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    format_matrix,
    is_full_rank,
    m_rank,
    parse_matrix,
    random_symmetric,
    reduce_case4,
)


def sym(rows, m):
    return SymMatrix.from_rows([list(r) for r in rows], m)


def all_symmetric(n, m):
    free = n * (n + 1) // 2
    for combo in itertools.product(range(m), repeat=free):
        yield SymMatrix(n, m, combo)


def det_cofactor(rows):
    """Independent determinant oracle: Laplace expansion on plain ints."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for c in range(k):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * det_cofactor(minor)
    return total


def brute_rank(A):
    """Largest k with a k x k submatrix whose determinant is nonzero mod m."""
    rows = A.rows()
    for k in range(A.n, 0, -1):
        for ri in itertools.combinations(range(A.n), k):
            for ci in itertools.combinations(range(A.n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) % A.m != 0:
                    return k
    return 0


# ---------------------------------------------------------------- structure


def test_packed_triangle_roundtrip():
    A = sym([[1, 2, 3], [2, 4, 5], [3, 5, 6]], 7)
    assert A.entries == (1, 2, 3, 4, 5, 6)
    assert A.rows() == [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
    assert A.entry(2, 0) == A.entry(0, 2) == 3


def test_from_rows_validates_symmetry_then_reduces():
    with pytest.raises(ValueError):
        sym([[0, 1], [2, 0]], 5)
    A = sym([[6, 7], [7, -1]], 5)
    assert A.rows() == [[1, 2], [2, 4]]


def test_entry_bounds_validated():
    with pytest.raises(ValueError):
        SymMatrix(1, 3, (3,))
    with pytest.raises(ValueError):
        SymMatrix(2, 3, (0, 1))


def test_matrix_text_format_roundtrip():
    A = sym([[1, 2], [2, 3]], 4)
    text = format_matrix(A)
    assert text == "2 4\n1 2\n2 3\n"
    assert parse_matrix(text) == A


def test_parse_matrix_rejects_asymmetric_and_bad_shape():
    with pytest.raises(ValueError):
        parse_matrix("2 4\n1 2\n3 1\n")
    with pytest.raises(ValueError):
        parse_matrix("2 4\n1 2 3\n2 1\n")
    with pytest.raises(ValueError):
        parse_matrix("")


# ----------------------------------------------------------------- sampling


def test_random_symmetric_deterministic():
    a = random_symmetric(4, 9, random.Random(123))
    b = random_symmetric(4, 9, random.Random(123))
    assert a == b
    assert a.n == 4 and a.m == 9


def test_random_symmetric_rejects_small_modulus():
    with pytest.raises(ValueError):
        random_symmetric(2, 1, random.Random(0))


def test_random_symmetric_empty():
    assert random_symmetric(0, 5, random.Random(0)).entries == ()


def test_random_symmetric_entry_uniformity():
    rng = random.Random(7)
    trials = 20000
    counts = Counter()
    for _ in range(trials):
        A = random_symmetric(3, 2, rng)
        for e in A.entries:
            counts[e] += 1
    total = trials * 6
    # 3 sigma around 1/2 for a fair binomial
    sigma = (total * 0.25) ** 0.5
    assert abs(counts[0] - total / 2) < 3 * sigma


# ------------------------------------------------------------- determinants


def test_det_examples():
    assert det_mod(sym([[1, 0], [0, 1]], 9)) == 1
    assert det_mod(sym([[2, 1], [1, 3]], 4)) == 1  # det 5
    assert det_mod(sym([[2, 0], [0, 2]], 4)) == 0  # det 4
    assert det_mod(SymMatrix(0, 6, ())) == 1
    assert det_mod(SymMatrix(2, 1, (0, 0, 0))) == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.sampled_from([2, 3, 4, 5, 9, 12, 30]), st.integers())
def test_det_matches_cofactor_oracle(n, m, seed):
    A = random_symmetric(n, m, random.Random(seed))
    assert det_mod(A) == det_cofactor(A.rows()) % m


# -------------------------------------------------------------------- ranks


def test_rank_trivial_cases():
    assert m_rank(sym([[0, 0], [0, 0]], 4)).rank == 0
    assert m_rank(sym([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6)).rank == 3


def test_rank_valuation_example():
    prof = m_rank(sym([[2, 0], [0, 2]], 4))
    assert prof.rank == 1
    assert prof.valuations == (1, 1)


def test_rank_composite_has_no_valuations():
    prof = m_rank(sym([[2, 0], [0, 2]], 12))
    assert prof.valuations is None
    assert prof.rank == 2  # det 4 is nonzero mod 3, hence mod 12


def test_rank_matches_brute_force_minor_search():
    grids = [(n, m) for n in (1, 2, 3) for m in (2, 3, 4)]
    for n, m in grids:
        for A in all_symmetric(n, m):
            prof = m_rank(A)
            assert prof.rank == brute_rank(A), (A, prof)
            if prof.valuations is not None:
                assert list(prof.valuations) == sorted(prof.valuations)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=4, max_value=5),
    st.sampled_from([2, 3, 4, 8, 9]),
    st.integers(),
)
def test_rank_matches_brute_force_on_random_larger_matrices(n, m, seed):
    A = random_symmetric(n, m, random.Random(seed))
    assert m_rank(A).rank == brute_rank(A)


def test_rank_full_iff_det_nonzero():
    for n, m in [(2, 4), (2, 6), (3, 2), (3, 3)]:
        for A in all_symmetric(n, m):
            assert (m_rank(A).rank == A.n) == (det_mod(A) != 0)


def test_rank_composite_is_max_over_factors():
    for A in all_symmetric(2, 12):
        expect = max(
            m_rank(sym([[x % 4 for x in r] for r in A.rows()], 4)).rank,
            m_rank(sym([[x % 3 for x in r] for r in A.rows()], 3)).rank,
        )
        assert m_rank(A).rank == expect


# ---------------------------------------------------------- classification


def test_classify_examples():
    assert classify_case(sym([[1, 0], [0, 2]], 4)) == CASE1
    assert classify_case(sym([[2, 1], [1, 0]], 4)) == CASE2
    assert classify_case(sym([[2, 2], [2, 0]], 4)) == CASE3
    assert classify_case(sym([[0, 0], [0, 3]], 4)) == CASE4


def test_classify_rejects_composite_modulus():
    with pytest.raises(ValueError):
        classify_case(sym([[1, 0], [0, 1]], 6))


def test_classify_partitions_everything():
    for n, m in [(1, 4), (2, 4), (2, 9), (3, 2)]:
        for A in all_symmetric(n, m):
            assert classify_case(A) in (CASE1, CASE2, CASE3, CASE4)


def test_case_fractions_at_mu2():
    # (n=2, m=4): 1-q, q(1-q^(n-1)), q^n(1-q), q^(n+1) with q = 1/2
    counts = Counter(classify_case(A) for A in all_symmetric(2, 4))
    total = 64
    q = F(1, 2)
    assert F(counts[CASE1], total) == 1 - q
    assert F(counts[CASE2], total) == q * (1 - q)
    assert F(counts[CASE3], total) == q**2 * (1 - q)
    assert F(counts[CASE4], total) == q**3
    assert sum(counts.values()) == total


def test_case_fractions_mu1_merge_cases_3_and_4():
    # at mu=1 the mod-p^2 distinction is invisible: case 3 is empty and the
    # combined mass of cases 3 and 4 is q^n
    counts = Counter(classify_case(A) for A in all_symmetric(3, 2))
    total = 64
    q = F(1, 2)
    assert F(counts[CASE1], total) == 1 - q
    assert F(counts[CASE2], total) == q * (1 - q**2)
    assert counts[CASE3] == 0
    assert F(counts[CASE3] + counts[CASE4], total) == q**3


# -------------------------------------------------------------- elimination


def test_eliminate_case1_worked_example():
    step = eliminate_case1(sym([[3, 1], [1, 2]], 4))
    assert step.kind == CASE1
    assert step.pivot_factor == 3
    assert step.residual.rows() == [[3]]  # lambda_2 = 1
    assert step.modulus_shift == 0
    assert (3 * 3) % 4 == det_mod(sym([[3, 1], [1, 2]], 4))


def test_eliminate_case1_congruence_and_residual_dimension():
    for n, m in [(2, 2), (2, 3), (2, 4), (2, 9), (3, 2), (3, 4)]:
        for A in all_symmetric(n, m):
            if classify_case(A) != CASE1:
                continue
            step = eliminate_case1(A)
            assert step.residual.n == n - 1
            assert step.residual.m == m
            assert det_mod(A) == step.pivot_factor * det_mod(step.residual) % m


def test_eliminate_case1_rejects_wrong_case_or_tiny():
    with pytest.raises(ValueError):
        eliminate_case1(sym([[0, 1], [1, 0]], 4))
    with pytest.raises(ValueError):
        eliminate_case1(sym([[1]], 4))


def test_case1_residual_uniform():
    for m in (2, 3, 4):
        residuals = Counter(
            eliminate_case1(A).residual.entries
            for A in all_symmetric(2, m)
            if classify_case(A) == CASE1
        )
        assert len(residuals) == m
        assert len(set(residuals.values())) == 1


def test_eliminate_case2_worked_example():
    A = sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2)
    step = eliminate_case2(A)
    assert step.kind == CASE2
    assert step.pivot_factor == 1  # -a12^2 = -1 = 1 mod 2
    assert det_mod(A) == 0
    assert det_mod(step.residual) == 0  # forced by the congruence


def test_eliminate_case2_congruence():
    for n, m in [(3, 2), (3, 3), (3, 4)]:
        for A in all_symmetric(n, m):
            if classify_case(A) != CASE2:
                continue
            step = eliminate_case2(A)
            assert step.residual.n == n - 2
            assert det_mod(A) == step.pivot_factor * det_mod(step.residual) % m


def test_eliminate_case2_uses_permutation_when_needed():
    # a12 = 0 mod p but a13 is a unit: columns 2 and 3 swap first
    A = sym([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 2)
    step = eliminate_case2(A)
    assert det_mod(A) == step.pivot_factor * det_mod(step.residual) % 2


def test_case2_residual_uniform():
    residuals = Counter(
        eliminate_case2(A).residual.entries
        for A in all_symmetric(3, 2)
        if classify_case(A) == CASE2
    )
    assert len(residuals) == 2
    assert len(set(residuals.values())) == 1


def test_eliminate_case2_rejects_small_n():
    with pytest.raises(ValueError):
        eliminate_case2(sym([[0, 1], [1, 0]], 2))


def test_eliminate_case3_congruence():
    for n, m in [(2, 4), (2, 8), (3, 4), (2, 9)]:
        p = 2 if m % 2 == 0 else 3
        for A in all_symmetric(n, m):
            if classify_case(A) != CASE3:
                continue
            step = eliminate_case3(A)
            assert step.residual.n == n - 1
            assert step.residual.m == m // p
            assert step.modulus_shift == 1
            assert det_mod(A) == step.pivot_factor * det_mod(step.residual) % m


def test_reduce_case4_mu2_boundary():
    rng = random.Random(0)
    step = reduce_case4(sym([[0, 0], [0, 3]], 4), rng)
    assert step.kind == CASE4
    assert step.residual.m == 1
    assert step.residual.n == 2
    assert det_mod(sym([[0, 0], [0, 3]], 4)) == 0


def test_reduce_case4_worked_example():
    # mod 8: first row/col of [[4,2],[2,4]] divides down to the [[1,1],[1,4]]
    # pattern, and det(A) = 12 = 4 * det(residual) mod 8
    A = sym([[4, 2], [2, 4]], 8)
    step = reduce_case4(A, random.Random(1))
    assert step.residual.m == 2
    assert step.residual.entry(0, 0) == 1
    assert step.residual.entry(0, 1) == 1
    assert det_mod(A) == (step.pivot_factor * det_mod(step.residual)) % 8


def test_reduce_case4_congruence_exhaustive():
    for n, m, p in [(2, 4, 2), (2, 8, 2), (2, 9, 3), (3, 4, 2)]:
        rng = random.Random(99)
        for A in all_symmetric(n, m):
            if classify_case(A) != CASE4:
                continue
            step = reduce_case4(A, rng)
            assert step.residual.m == m // (p * p)
            assert det_mod(A) == (step.pivot_factor * det_mod(step.residual)) % m


def test_reduce_case4_residual_uniform():
    # (n=2, p=2, mu=4): the residual mod 4 of every case-4 matrix mod 16,
    # tallied exhaustively, is uniform
    counts = Counter(
        reduce_case4(A, random.Random(5)).residual.entries
        for A in all_symmetric(2, 16)
        if classify_case(A) == CASE4
    )
    assert len(counts) == 4**3
    assert len(set(counts.values())) == 1


def test_reduce_case4_residual_uniform_mu2():
    # mu=2 residuals live mod 1: a single all-zero matrix
    counts = Counter(
        reduce_case4(A, random.Random(5)).residual.entries
        for A in all_symmetric(2, 4)
        if classify_case(A) == CASE4
    )
    assert set(counts) == {(0, 0, 0)}


def test_reduce_case4_rejects_mu1():
    with pytest.raises(ValueError):
        reduce_case4(sym([[0, 0], [0, 1]], 2), random.Random(0))


def test_elimination_preserves_symmetry():
    for A in all_symmetric(3, 4):
        case = classify_case(A)
        if case == CASE1:
            res = eliminate_case1(A).residual
        elif case == CASE2:
            res = eliminate_case2(A).residual
        elif case == CASE3:
            res = eliminate_case3(A).residual
        else:
            res = reduce_case4(A, random.Random(3)).residual
        rows = res.rows()
        assert all(rows[i][j] == rows[j][i] for i in range(res.n) for j in range(res.n))


def test_is_full_rank_examples():
    assert is_full_rank(sym([[1, 0], [0, 1]], 5))
    assert not is_full_rank(sym([[0, 0], [0, 0]], 5))
    assert not is_full_rank(sym([[2, 1], [1, 2]], 3))  # det 3
