"""One measured operation in a fresh interpreter.

Reads an operation spec (JSON) on stdin, imports symrank from ``src/`` of
the working directory, optionally installs the span tracer, times the one
call the spec names and prints one JSON result line on stdout.  The time
from launch to ``t_ready`` is the set-up a user pays before the first call.
A speed probe runs right before and right after the timed call, so the
parent can take out how fast the shared machine ran at that moment.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def speed_probe() -> float:
    """Seconds for a fixed piece of stdlib Fraction arithmetic (gcd-bound
    big integers, like the exact routes); it uses no symrank code."""
    t0 = time.perf_counter()
    q, p, x = Fraction(1, 3), Fraction(1), Fraction(0)
    for i in range(1, 700):
        p *= q
        x += p * (1 - p) / i
    return time.perf_counter() - t0


def _hexfrac(x) -> list[str]:
    return [format(x.numerator, "x"), format(x.denominator, "x")]


def _hist(d: dict) -> dict:
    return {str(k): v for k, v in sorted(d.items(), key=lambda kv: str(kv[0]))}


# The one symrank module each kind of operation calls into; the child imports
# it during set-up, so the timed region holds only the call.
MODULE_OF = {
    "route": "prob",
    "cli": "cli",
    "exhaustive": "oracle",
    "monte_carlo": "oracle",
    "rank_mc": "oracle",
}


def run_op(op: dict, mod):
    """Make the call `op` describes on module `mod` and return its output as
    plain JSON data."""
    kind = op["kind"]
    if kind == "route":
        res = mod.probability(op["n"], op["p"] ** op["mu"], op["route"])
        return {"P": _hexfrac(res.value_P)}
    if kind == "cli":
        rcs, outs = [], []
        for argv in op["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = mod.main(list(argv))
            rcs.append(rc)
            outs.append(buf.getvalue())
        return {"rc": rcs, "out": outs}
    if kind == "exhaustive":
        rep = mod.exhaustive(op["n"], op["m"])
        return {
            "total": rep.total,
            "full": rep.full_rank_count,
            "det": _hist(rep.det_histogram),
            "rank": _hist(rep.rank_histogram),
            "case": None if rep.case_histogram is None else _hist(rep.case_histogram),
        }
    if kind == "monte_carlo":
        est = mod.monte_carlo(op["n"], op["m"], op["trials"], op["seed"], op["workers"])
        return {"trials": est.trials, "hits": est.hits}
    if kind == "rank_mc":
        hist = mod.rank_histogram_mc(op["n"], op["m"], op["trials"], op["seed"])
        return {"hist": _hist(hist)}
    raise ValueError(f"unknown operation kind {kind!r}")


def main() -> int:
    spec = json.loads(sys.stdin.read())
    op = spec["op"]
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import symrank

    if not os.path.abspath(symrank.__file__).startswith(src + os.sep):
        print(f"symrank imported from {symrank.__file__}, not from {src}", file=sys.stderr)
        return 2
    mod = importlib.import_module("symrank." + MODULE_OF[op["kind"]])
    if op.get("warmup"):
        mod.monte_carlo(3, 4, 256, 0)
    tracer = None
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready, "error": None, "payload": None}
    probe_before = speed_probe()
    t0 = time.perf_counter()
    try:
        out["payload"] = run_op(op, mod)
    except Exception as exc:  # every failure is counted by the parent, never fatal
        out["error"] = f"{type(exc).__name__}: {str(exc)[:200]}"
    out["work_s"] = time.perf_counter() - t0
    out["probe_s"] = (probe_before + speed_probe()) / 2
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(spec["trace_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
