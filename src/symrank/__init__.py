"""symrank: exact probabilities that random symmetric matrices over Z_m
are nonsingular mod m, cross-validated through independent routes."""

from .arith import (
    BoundedValue,
    PrimePower,
    factorize,
    is_prime,
    legendre,
    pochhammer,
    pochhammer_infinite,
    t1_alt,
    t3_alt,
    t_beta,
)
from .genfun import RationalFunction, gf, series, verify_functional_eq
from .oracle import (
    BudgetExceeded,
    ExhaustiveReport,
    MCEstimate,
    exhaustive,
    monte_carlo,
    rank_histogram_mc,
)
from .prob import (
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
from .symmat import (
    ElimStep,
    RankProfile,
    SymMatrix,
    classify_case,
    det_mod,
    eliminate_case1,
    eliminate_case2,
    eliminate_case3,
    is_full_rank,
    load_matrix,
    m_rank,
    parse_matrix,
    random_symmetric,
    reduce_case4,
)

__version__ = "0.1.0"
