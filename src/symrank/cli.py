"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage/argument/IO/memory error.
Fractions are printed in lowest terms; decimals are 12-significant-digit
renderings (round half even) and are never fed back into computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from . import genfun, oracle, prob, symmat
from .arith import factorize, is_prime

ORACLE_GRID = [
    (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
    (2, 9), (2, 12), (3, 2), (3, 3), (3, 4), (4, 2),
]
DETDIST_GRID = [(1, 3), (2, 3), (2, 5), (3, 3), (1, 2), (2, 2)]


def dec12(x: Fraction) -> str:
    """12 significant digits, round half even, trailing zeros kept."""
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(Decimal(1).scaleb(d.adjusted() - 11)))


def _record(n: int, m: int, route: str) -> dict:
    res = prob.probability(n, m, route)
    factors = factorize(m)
    p, mu = (factors[0].p, factors[0].mu) if len(factors) == 1 else (None, None)
    return {
        "n": n,
        "p": p,
        "mu": mu,
        "m": m,
        "P_num": str(res.value_P.numerator),
        "P_den": str(res.value_P.denominator),
        "Q_num": str(res.value_Q.numerator),
        "Q_den": str(res.value_Q.denominator),
        "P_dec": dec12(res.value_P),
        "Q_dec": dec12(res.value_Q),
        "route": res.route,
    }


def cmd_prob(args) -> int:
    rec = _record(args.n, args.m, args.route)
    if args.json:
        print(json.dumps(rec))
    else:
        print(f"n={rec['n']} m={rec['m']}" + (f" p={rec['p']} mu={rec['mu']}" if rec["p"] else ""))
        print(f"P = {rec['P_num']}/{rec['P_den']} ({rec['P_dec']})")
        print(f"Q = {rec['Q_num']}/{rec['Q_den']} ({rec['Q_dec']})")
        print(f"route = {rec['route']}")
    return 0


TABLE_FIELDS = ["n", "p", "mu", "m", "P_num", "P_den", "Q_num", "Q_den", "P_dec", "Q_dec"]


def _check_grid(args, n_min: int) -> None:
    """Refuse a grid that holds no point, which would pass having checked nothing."""
    if args.n_max < n_min:
        raise ValueError(f"--n-max must be >= {n_min}, got {args.n_max}")
    if args.mu_max < 1:
        raise ValueError(f"--mu-max must be >= 1, got {args.mu_max}")


def cmd_table(args) -> int:
    if not is_prime(args.p):
        raise ValueError(f"p = {args.p} is not prime")
    _check_grid(args, 0)
    rows = []
    for n in range(args.n_max + 1):
        for mu in range(1, args.mu_max + 1):
            rec = _record(n, args.p**mu, "explicit")
            rows.append({k: rec[k] for k in TABLE_FIELDS})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=TABLE_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(json.dumps(r) for r in rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_plist(text: str) -> list[int]:
    ps = [int(tok) for tok in text.split(",") if tok.strip()]
    if not ps:
        raise ValueError("--p-list names no prime")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
    return ps


# A suite takes the grid (primes, n_max, mu_max) and yields one "PASS <suite>: ..."
# line per check; a caller stops at the first "FAIL <suite>: <counterexample>".
# Calls go through module attributes, so a patched or traced function sees all.


def _suite_crossroute(primes, n_max, mu_max):
    for p in primes:
        for n in range(n_max + 1):
            for mu in range(1, mu_max + 1):
                vals = {r: prob.probability(n, p**mu, r).value_P for r in prob.ROUTES}
                ref = vals["explicit"]
                for route, v in vals.items():
                    if v != ref:
                        yield f"FAIL crossroute: n={n} p={p} mu={mu}: {route}={v} explicit={ref}"
        yield f"PASS crossroute: p={p}, n<={n_max}, mu<={mu_max}, all routes equal"


def _suite_oracle(primes, n_max, mu_max):
    budget = oracle.exhaustive_budget()
    for n, m in ORACLE_GRID:
        rep = oracle.exhaustive(n, m, budget)
        exact = prob.probability(n, m).value_P
        if rep.full_rank_fraction != exact:
            yield f"FAIL oracle: (n={n}, m={m}): counted {rep.full_rank_fraction}, formula {exact}"
        yield f"PASS oracle: (n={n}, m={m}) count {rep.full_rank_count}/{rep.total} = {exact}"


def _suite_bounds(primes, n_max, mu_max):
    for p in primes:
        q = Fraction(1, p)
        for n in range(1, n_max + 1):
            for mu in range(1, mu_max + 1):
                r = prob.r_term(n, p, mu)
                if r < 0:
                    yield f"FAIL bounds: R < 0 at n={n} p={p} mu={mu}: {r}"
                if r * r >= q ** (3 * mu):
                    yield f"FAIL bounds: R^2 >= q^(3mu) at n={n} p={p} mu={mu}: {r}"
                if (r == 0) != (n // 2 == 0):
                    yield f"FAIL bounds: R = 0 iff k = 0 broken at n={n} p={p} mu={mu}"
        yield f"PASS bounds: p={p}, 0 <= R and R^2 < q^(3mu) on the grid"
    eps = Fraction(1, 10**9)
    for p in primes:
        for mu in range(1, min(mu_max, 4) + 1):
            qenc = prob.q_limit(p, mu, eps)
            box = prob.limit_interval(p, mu)
            if not (box.intersects(qenc) and box.lower - eps <= qenc.lower and qenc.upper <= box.upper + eps):
                yield f"FAIL bounds: limit enclosure escapes [q^mu, q^mu/(1-q)] at p={p} mu={mu}"
        yield f"PASS bounds: p={p}, limit Q enclosures inside [q^mu, q^mu/(1-q)]"


def _suite_monotone(primes, n_max, mu_max):
    for p in primes:
        bad = prob.monotonicity_violation(n_max, p, mu_max)
        if bad is not None:
            n, mu, which = bad
            yield (f"FAIL monotone: P({n + 1},{p}^{mu}) > P({n},{p}^{mu})" if which == "n"
                   else f"FAIL monotone: P({n},{p}^{mu}) > P({n},{p}^{mu + 1})")
        yield f"PASS monotone: p={p}, P(n+1,p^mu) <= P(n,p^mu) <= P(n,p^(mu+1)) on the grid"


def _suite_genfun(primes, n_max, mu_max):
    qs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
    for q in qs:
        for n in range(1, 13):
            if not genfun.verify_functional_eq(n, q):
                yield f"FAIL genfun: functional equation fails at n={n} q={q}"
        for k in range(7):
            if not genfun.verify_odd_step(k, q) or not genfun.verify_even_step(k, q):
                yield f"FAIL genfun: step identity fails at k={k} q={q}"
        yield f"PASS genfun: q={q}, functional equation and step identities hold"
    for p in (2, 3, 5):
        table = prob.p5_table(12, p, 12)
        for n in range(13):
            coeffs = genfun.series(genfun.gf(n, Fraction(1, p)), 12)
            for mu in range(1, 13):
                if coeffs[mu] != table[n][mu]:
                    yield f"FAIL genfun: coefficient mismatch at n={n} p={p} mu={mu}"
    yield "PASS genfun: series coefficients match the recurrence for n<=12, mu<=12, p in {2,3,5}"


def _suite_detdist(primes, n_max, mu_max):
    budget = oracle.exhaustive_budget()
    for n, p in DETDIST_GRID:
        rep = oracle.exhaustive(n, p, budget)
        total = Fraction(1)
        for d in range(1, p):
            want = prob.det_value_prob(n, p, d)
            got = Fraction(rep.det_histogram.get(d, 0), rep.total)
            if want != got:
                yield f"FAIL detdist: (n={n}, p={p}, d={d}): formula {want}, counted {got}"
            total -= want
        if total != prob.q_explicit(n, p, 1):
            yield f"FAIL detdist: (n={n}, p={p}): residue-0 mass {total} != Q {prob.q_explicit(n, p, 1)}"
        yield f"PASS detdist: (n={n}, p={p}) matches exhaustive histogram"


SUITES = {
    "crossroute": _suite_crossroute,
    "oracle": _suite_oracle,
    "bounds": _suite_bounds,
    "monotone": _suite_monotone,
    "genfun": _suite_genfun,
    "detdist": _suite_detdist,
}


def cmd_verify(args) -> int:
    _check_grid(args, 1)
    primes = _parse_plist(args.p_list)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rc = 0
    for name in names:
        for line in SUITES[name](primes, args.n_max, args.mu_max):
            print(line)
            if line.startswith("FAIL"):
                rc = 1
                break
    print("verify: OK" if rc == 0 else "verify: FAILED")
    return rc


def cmd_sample(args) -> int:
    est = oracle.monte_carlo(args.n, args.m, args.trials, args.seed, args.workers)
    exact = prob.probability(args.n, args.m).value_P
    print(f"n={args.n} m={args.m} trials={est.trials} seed={est.seed} workers={est.workers}")
    print(f"hits = {est.hits}, estimate = {est.estimate} ({est.hits / est.trials:.6f})")
    print(f"99% CI = [{est.ci_low:.6f}, {est.ci_high:.6f}]")
    print(f"exact P = {exact.numerator}/{exact.denominator} ({dec12(exact)})")
    print(f"covered = {'yes' if est.covers(exact) else 'no'}")
    return 0


def cmd_limit(args) -> int:
    eps = Fraction(args.eps)
    penc = prob.p_limit(args.p, args.mu, eps)
    qenc = penc.complement_from_one()
    box = prob.limit_interval(args.p, args.mu)
    print(f"p={args.p} mu={args.mu} eps={eps}")
    print(f"lim P in [{dec12(penc.lower)}, {dec12(penc.upper)}]")
    print(f"lim Q in [{dec12(qenc.lower)}, {dec12(qenc.upper)}]")
    print(
        f"a-priori Q interval [q^mu, q^mu/(1-q)] = "
        f"[{box.lower.numerator}/{box.lower.denominator}, {box.upper.numerator}/{box.upper.denominator}]"
    )
    return 0


def cmd_detdist(args) -> int:
    if not is_prime(args.p):
        raise ValueError(f"p = {args.p} is not prime")
    rep = None
    if args.exhaustive:
        rep = oracle.exhaustive(args.n, args.p, oracle.exhaustive_budget())
    q0 = prob.q_explicit(args.n, args.p, 1)
    for d in range(args.p):
        pr = q0 if d == 0 else prob.det_value_prob(args.n, args.p, d)
        line = f"d={d}: {pr.numerator}/{pr.denominator} ({dec12(pr)})"
        if rep is not None:
            line += f"  observed {rep.det_histogram.get(d, 0)}/{rep.total}"
        print(line)
    return 0


def cmd_rank(args) -> int:
    A = symmat.load_matrix(args.input)
    profile = symmat.m_rank(A)
    print(f"n={A.n} m={A.m}")
    print(f"m-rank: {profile.rank}")
    if profile.valuations is not None:
        print(f"valuations: {','.join(str(v) for v in profile.valuations)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Exact probabilities that random symmetric matrices over Z_m are nonsingular mod m",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prob", help="P(n,m) and Q(n,m) for one point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--route", choices=list(prob.ROUTES), default="explicit")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_prob)

    sp = sub.add_parser("table", help="emit a (n, mu) table for one prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mu-max", type=int, required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run identity/oracle verification suites")
    sp.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    sp.add_argument("--n-max", type=int, default=20)
    sp.add_argument("--mu-max", type=int, default=6)
    sp.add_argument("--p-list", default="2,3,5")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sample", help="Monte Carlo estimate vs the exact value")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="substreams the trials are split into; they run one after another, so no speedup",
    )
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("limit", help="enclose lim_n P and Q for p^mu")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)
    sp.add_argument("--eps", default="1/1000000000")
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("detdist", help="determinant-value distribution mod p")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.set_defaults(func=cmd_detdist)

    sp = sub.add_parser("rank", help="m-rank of a matrix from a text file")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11: print exact values of any size
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
