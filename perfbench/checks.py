"""Output checks for every operation the benchmark issues.

``check_group`` takes the operations of one group (the four routes of one
exact point, or a single command or sweep) with their child results and
returns one verdict per operation: None when the output is right, otherwise
a one-line reason.  References are recomputed here, untimed, by another
route or from an independent property of the output.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

from symrank import prob

# A correct sampler leaves the band hits = P*trials +- Z*sigma with
# probability below 2e-9 per check.
Z_BAND = 6.0
DEC_RTOL = Fraction(1, 10**11)


def _dec_close(text: str, exact: Fraction) -> bool:
    return abs(Fraction(text) - exact) <= DEC_RTOL * abs(exact) + Fraction(1, 10**300)


def _is_power_of(den: int, p: int) -> bool:
    while den % p == 0:
        den //= p
    return den == 1


def _unhex(pair: list[str]) -> Fraction:
    return Fraction(int(pair[0], 16), int(pair[1], 16))


def _check_routes(ops: list[dict], results: list[dict]) -> list[str | None]:
    """Routes of one point must agree; a route outvoted by the others fails."""
    verdicts: list[str | None] = [None] * len(ops)
    values = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        v = _unhex(res["payload"]["P"])
        if not (0 < v < 1 and _is_power_of(v.denominator, op["p"])):
            verdicts[i] = f"P={v} is not in (0,1) over a power of {op['p']}"
        else:
            values[i] = v
    counts = Counter(values.values())
    if len(counts) > 1:
        ref, top = counts.most_common(1)[0]
        if 2 * top <= len(values):
            ref = None
        for i, v in values.items():
            if v != ref:
                verdicts[i] = f"{ops[i]['route']} disagrees with the other routes"
    return verdicts


def _check_table(op: dict, out: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    p = op["p"]
    want = [(n, mu) for n in range(op["n_max"] + 1) for mu in range(1, op["mu_max"] + 1)]
    if [(int(r["n"]), int(r["mu"])) for r in rows] != want:
        return f"table rows are not the (n, mu) grid: got {len(rows)} rows"
    for r in rows:
        n, mu = int(r["n"]), int(r["mu"])
        P = Fraction(int(r["P_num"]), int(r["P_den"]))
        Q = Fraction(int(r["Q_num"]), int(r["Q_den"]))
        if int(r["p"]) != p or int(r["m"]) != p**mu:
            return f"row n={n} mu={mu}: wrong p or m"
        if P != prob.p_recurrence5(n, p, mu) or P + Q != 1:
            return f"row n={n} mu={mu}: P differs from recurrence5"
        if not (_dec_close(r["P_dec"], P) and _dec_close(r["Q_dec"], Q)):
            return f"row n={n} mu={mu}: decimal rendering off"
    return None


def _check_verify(out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[-1] != "verify: OK" or any(ln.startswith("FAIL") for ln in lines):
        return "verify did not print verify: OK"
    return None


def _in_band(hits: int, trials: int, exact: Fraction) -> bool:
    mean = float(exact) * trials
    sigma = math.sqrt(trials * float(exact) * float(1 - exact))
    return abs(hits - mean) <= Z_BAND * sigma + 1


def _check_exhaustive(op: dict, pay: dict) -> str | None:
    n, m = op["n"], op["m"]
    total = m ** (n * (n + 1) // 2)
    exact = prob.probability(n, m).value_P
    if pay["total"] != total or Fraction(pay["full"], total) != exact:
        return f"exhaustive ({n},{m}): {pay['full']}/{pay['total']} full rank, expected {exact}"
    det, rank = pay["det"], pay["rank"]
    if sum(det.values()) != total or sum(rank.values()) != total:
        return f"exhaustive ({n},{m}): histograms do not sum to {total}"
    if total - det.get("0", 0) != pay["full"] or rank.get(str(n), 0) != pay["full"]:
        return f"exhaustive ({n},{m}): det and rank histograms disagree on full rank"
    if pay["case"] is not None and sum(pay["case"].values()) != total:
        return f"exhaustive ({n},{m}): case histogram does not sum to {total}"
    return None


def _check_sampler(op: dict, pay: dict) -> str | None:
    n, m, trials = op["n"], op["m"], op["trials"]
    exact = prob.probability(n, m).value_P
    if op["kind"] == "monte_carlo":
        got, hits = pay["trials"], pay["hits"]
    else:
        got, hits = sum(pay["hist"].values()), pay["hist"].get(str(n), 0)
    if got != trials:
        return f"{op['kind']} ({n},{m}): {got} samples, expected {trials}"
    if not _in_band(hits, trials, exact):
        return f"{op['kind']} ({n},{m}): {hits}/{trials} full rank is far from P={float(exact):.6f}"
    return None


def _check_one(op: dict, pay: dict) -> str | None:
    kind = op["kind"]
    if kind == "exhaustive":
        return _check_exhaustive(op, pay)
    if kind in ("monte_carlo", "rank_mc"):
        return _check_sampler(op, pay)
    if kind != "cli":
        raise ValueError(f"unknown operation kind {kind!r}")
    if pay["rc"] != [0] * len(op["argvs"]):
        return f"{op['cmd']} exited with {pay['rc']}"
    if op["cmd"] == "table":
        return _check_table(op, pay["out"][0])
    return _check_verify(pay["out"][0])


def check_group(ops: list[dict], results: list[dict]) -> list[str | None]:
    """One verdict per operation; an operation whose child raised is judged
    by the parent and is not passed here."""
    if ops[0]["kind"] == "route":
        return _check_routes(ops, results)
    verdicts = []
    for op, res in zip(ops, results):
        try:
            verdicts.append(_check_one(op, res["payload"]))
        except (KeyError, TypeError, ValueError) as exc:
            verdicts.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdicts
